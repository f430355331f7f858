#!/usr/bin/env python3
"""Project-invariant linter for DBAugur.

Enforces repo-wide conventions that neither the compiler nor clang-tidy
checks, so they cannot erode one "just this once" at a time:

  bare-assert        No bare `assert(...)` anywhere in src/, tests/ or bench/.
                     Contracts use DBAUGUR_CHECK / DBAUGUR_DCHECK, which
                     survive -DNDEBUG and print a message. (`static_assert`
                     and gtest ASSERT_* macros are fine.)
  nondeterminism     No std::rand / srand / std::random_device /
                     time(nullptr) / argless system_clock::now() in src/.
                     Every random draw goes through common/rng.h with an
                     explicit seed; every timestamp is passed in by the
                     caller. This is what keeps retrain cycles replayable.
  atomic-shared-ptr  No std::atomic<std::shared_ptr<...>> anywhere: libstdc++
                     12's free-function implementation trips TSan (GCC PR
                     101761). Use a mutex-guarded shared_ptr (see
                     serve/shard.h) instead.
  raw-sync           No raw std:: sync primitives (std::mutex,
                     std::condition_variable, std::lock_guard,
                     std::unique_lock, std::scoped_lock, std::shared_mutex,
                     std::recursive_mutex) outside src/common/mutex.h. All
                     locking goes through dbaugur::Mutex / MutexLock /
                     CondVar so Clang's -Werror=thread-safety capability
                     analysis sees every acquisition (a raw lock is invisible
                     to it and silently exempts the code it guards).
  nolint-discipline  Every `NOLINT` marker names the suppressed check
                     (`// NOLINT(check-name)`) and has a reason in a comment
                     on the same or a preceding line. Bare NOLINTs silence
                     future, unrelated findings.
  nn-alloc           No `new` / malloc / calloc / realloc in src/nn: the
                     training hot path is allocation-free by design (PR 5's
                     fused GEMM kernels); buffers come from the layer
                     workspace arena.
  raw-intrinsics     No raw x86 intrinsics (`_mm*()`, `__m128/256/512`,
                     `__builtin_ia32_*`) or *intrin.h includes outside
                     src/common/simd.h. All SIMD goes through the portable
                     wrapper so the scalar tier stays a complete, testable
                     mirror of every vector path and new ISAs are one-file
                     ports.
  raw-thread         No bare `std::thread` in src/ outside common/thread_pool,
                     the one sanctioned owner of worker threads. Ad-hoc
                     threads dodge the pool's lifetime discipline
                     (join-on-destruction, bounded concurrency); lifecycle
                     threads that a class owns 1:1 (e.g. a service's
                     scheduler loop) go on the allowlist with a
                     justification. `std::this_thread` is fine — the rule
                     targets thread *ownership*, not sleeps or yields.
  orphan-header      Every header under src/ is #included by at least one
                     C++ file under src/ (other than the header's own .cpp),
                     bench/, examples/ or perfbench/. Includes from tests/
                     do not count: code that only its tests call is dead
                     code with a test attached. The includes are collected
                     from all four directories whatever targets are linted,
                     and an include path resolves against src/ and against
                     the including file's directory. A header no program
                     uses is either untested scaffolding or never compiled:
                     include it where it is used, or delete it.

Exit codes: 0 clean, 1 violations found, 2 usage / IO error.

False positives are suppressed through the allowlist file
(tools/lint_allowlist.txt by default): one `<rule-id> <path>` pair per line,
`#` comments allowed. An allowlisted (rule, file) pair skips that rule for
that file only. Rules are applied to comment- and string-stripped source so
that prose like "previously assert()s" never trips a code rule —
nolint-discipline is the exception, since NOLINT markers live in comments.
"""

import argparse
import os
import re
import sys

SOURCE_EXTS = (".cpp", ".h", ".cc", ".hpp")
HEADER_EXTS = (".h", ".hpp")
# Where the orphan-header rule looks for includes, whatever is linted. tests/
# is left out on purpose: a header only tests include has no caller.
INCLUDER_DIRS = ("src", "bench", "examples", "perfbench")

# ---------------------------------------------------------------------------
# Source preprocessing


def strip_comments_and_strings(text):
    """Replaces comment and string-literal contents with spaces.

    Line structure is preserved (newlines survive) so reported line numbers
    match the original file. A simple state machine is enough for the repo's
    C++ (no raw strings with embedded quotes in tricky places, no trigraphs).
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # R"( ... )" raw string: find the matching delimiter directly.
                if out and out[-1] == "R":
                    m = re.match(r'R"([^(\s"\\]*)\(', text[i - 1 :])
                    if m:
                        delim = ")" + m.group(1) + '"'
                        end = text.find(delim, i + len(m.group(0)) - 1)
                        if end == -1:
                            end = n
                        seg = text[i : end + len(delim)]
                        out.append("".join("\n" if ch == "\n" else " " for ch in seg))
                        i = end + len(delim)
                        continue
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rules. Each rule is (rule_id, applies(relpath) -> bool,
# check(relpath, raw_text, stripped_text) -> list[(line, message)]).


def _grep(stripped, pattern, message):
    hits = []
    rx = re.compile(pattern)
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        if rx.search(line):
            hits.append((lineno, message))
    return hits


def in_dirs(*prefixes):
    def applies(relpath):
        return any(
            relpath == p or relpath.startswith(p + os.sep) for p in prefixes
        )

    return applies


def check_bare_assert(relpath, raw, stripped):
    # `assert(` as a standalone token; static_assert and gtest's
    # ASSERT_*/EXPECT_* don't match because of the identifier boundary.
    return _grep(
        stripped,
        r"(?<![A-Za-z0-9_])assert\s*\(",
        "bare assert() — use DBAUGUR_CHECK/DBAUGUR_DCHECK (common/contracts.h); "
        "assert is stripped under -DNDEBUG",
    )


NONDET_PATTERNS = [
    (r"(?<![A-Za-z0-9_])(?:std::)?rand\s*\(\s*\)", "std::rand()"),
    (r"(?<![A-Za-z0-9_])(?:std::)?srand\s*\(", "srand()"),
    (r"(?<![A-Za-z0-9_])(?:std::)?random_device(?![A-Za-z0-9_])",
     "std::random_device"),
    (r"(?<![A-Za-z0-9_])time\s*\(\s*(?:nullptr|NULL|0)\s*\)", "time(nullptr)"),
    (r"system_clock\s*::\s*now\s*\(\s*\)", "system_clock::now()"),
]


def check_nondeterminism(relpath, raw, stripped):
    hits = []
    for pattern, what in NONDET_PATTERNS:
        hits.extend(
            _grep(
                stripped,
                pattern,
                f"nondeterministic source {what} — draw from common/rng.h with "
                "an explicit seed, or take the timestamp as a parameter",
            )
        )
    return hits


def check_atomic_shared_ptr(relpath, raw, stripped):
    hits = _grep(
        stripped,
        r"std::atomic\s*<\s*std::shared_ptr",
        "std::atomic<std::shared_ptr<>> trips TSan on libstdc++ 12 "
        "(GCC PR 101761) — use a mutex-guarded shared_ptr "
        "(see serve/shard.h)",
    )
    # atomic_load/atomic_store on shared_ptr hit the same libstdc++ paths.
    hits.extend(
        _grep(
            stripped,
            r"std::atomic_(?:load|store|exchange|compare_exchange)\w*\s*\(\s*&?\s*\w*snapshot",
            "free-function atomic access to shared_ptr trips TSan on "
            "libstdc++ 12 (GCC PR 101761) — use a mutex-guarded shared_ptr",
        )
    )
    return hits


MUTEX_WRAPPER = os.path.join("src", "common", "mutex.h")

RAW_SYNC_RX = (
    r"std::\s*(?:mutex|condition_variable(?:_any)?|lock_guard|unique_lock"
    r"|scoped_lock|shared_mutex|shared_lock|recursive_mutex|timed_mutex"
    r"|recursive_timed_mutex)(?![A-Za-z0-9_])"
)


def check_raw_sync(relpath, raw, stripped):
    """Raw std:: sync primitives outside the annotated wrapper.

    src/common/mutex.h is the one place allowed to touch them: it wraps them
    in capability-annotated shims, and every other acquisition must go through
    those shims or Clang's thread-safety analysis cannot see it.
    """
    if os.path.normpath(relpath) == MUTEX_WRAPPER:
        return []
    return _grep(
        stripped,
        RAW_SYNC_RX,
        "raw std:: sync primitive — lock through dbaugur::Mutex / MutexLock / "
        "CondVar (common/mutex.h) so the Clang thread-safety analysis sees "
        "the acquisition",
    )


NOLINT_RX = re.compile(r"NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")


def check_nolint_discipline(relpath, raw, stripped):
    """NOLINT must carry a check name and a nearby reason comment.

    Operates on the *raw* source because NOLINT markers live in comments. A
    reason is any comment text beyond the marker itself, on the same line or
    one of the two preceding lines.
    """
    hits = []
    lines = raw.splitlines()
    for lineno, line in enumerate(lines, start=1):
        for m in NOLINT_RX.finditer(line):
            checks = m.group(2)
            if not checks or not checks.strip():
                hits.append(
                    (
                        lineno,
                        "bare NOLINT — name the suppressed check: "
                        "// NOLINT(check-name)",
                    )
                )
                continue
            if not _has_nolint_reason(lines, lineno, m):
                hits.append(
                    (
                        lineno,
                        f"NOLINT({checks.strip()}) without a reason — add a "
                        "comment on the same or a preceding line saying why "
                        "the suppression is sound",
                    )
                )
    return hits


def _has_nolint_reason(lines, lineno, match):
    # Same line: comment text after the NOLINT(...) marker.
    rest = lines[lineno - 1][match.end() :]
    if re.search(r"[A-Za-z]", rest.replace("NOLINT", "")):
        return True
    # Preceding two lines: any comment line counts as the rationale.
    for back in (2, 3):
        idx = lineno - back
        if idx < 0:
            continue
        prev = lines[idx].strip()
        if (prev.startswith("//") or prev.startswith("*")) and re.search(
            r"[A-Za-z]", prev.lstrip("/* ")
        ):
            return True
    return False


def check_nn_alloc(relpath, raw, stripped):
    hits = _grep(
        stripped,
        r"(?<![A-Za-z0-9_])new(?![A-Za-z0-9_])(?!\s*\()",
        "raw `new` in src/nn — the training hot path is allocation-free; "
        "take buffers from the layer workspace",
    )
    hits.extend(
        _grep(
            stripped,
            r"(?<![A-Za-z0-9_:.])(?:malloc|calloc|realloc)\s*\(",
            "C allocation in src/nn — the training hot path is "
            "allocation-free; take buffers from the layer workspace",
        )
    )
    return hits


SIMD_WRAPPER = os.path.join("src", "common", "simd.h")

INTRINSIC_PATTERNS = [
    (r"(?<![A-Za-z0-9_])_mm(?:\d+)?_\w+\s*\(", "_mm* intrinsic call"),
    (r"(?<![A-Za-z0-9_])__m(?:128|256|512)[a-z]*(?![A-Za-z0-9_])",
     "__m128/__m256/__m512 vector type"),
    (r"__builtin_ia32_\w+", "__builtin_ia32_* builtin"),
]


def check_raw_intrinsics(relpath, raw, stripped):
    """Raw x86 SIMD outside the wrapper header.

    The include check runs on the raw text because `#include "..."` paths are
    string literals and would be blanked by the stripper.
    """
    if os.path.normpath(relpath) == SIMD_WRAPPER:
        return []
    hits = []
    for pattern, what in INTRINSIC_PATTERNS:
        hits.extend(
            _grep(
                stripped,
                pattern,
                f"raw {what} — all SIMD goes through common/simd.h "
                "(portable wrapper with a scalar tier); see DESIGN.md",
            )
        )
    include_rx = re.compile(
        r'^\s*#\s*include\s*[<"][^<>"]*(?:mmintrin|immintrin|x86intrin'
        r'|avxintrin|intrin)\.h[>"]'
    )
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if include_rx.search(line):
            hits.append(
                (
                    lineno,
                    "intrinsics header include — only common/simd.h may "
                    "include *intrin.h",
                )
            )
    return hits


THREAD_OWNERS = {
    os.path.join("src", "common", "thread_pool.h"),
    os.path.join("src", "common", "thread_pool.cpp"),
}

# `std::thread` as a type (ownership), not `std::this_thread` (different
# token) and not `std::thread::hardware_concurrency` (a pure query).
RAW_THREAD_RX = r"std::\s*thread(?![A-Za-z0-9_])(?!\s*::)"


def check_raw_thread(relpath, raw, stripped):
    """Bare std::thread outside the sanctioned worker-pool owner.

    common/thread_pool is the one place in src/ that may own raw threads: it
    joins on destruction and bounds concurrency. Retrain deadlines ride in
    the CancelToken, so no thread supervises them. A class that owns one
    lifecycle thread 1:1 earns an allowlist entry with a justification
    instead of a free pass here.
    """
    if os.path.normpath(relpath) in THREAD_OWNERS:
        return []
    return _grep(
        stripped,
        RAW_THREAD_RX,
        "bare std::thread — run work on common/thread_pool (owned "
        "lifecycle threads: allowlist with a justification)",
    )


INCLUDE_RX = re.compile(r'^\s*#\s*include\s*[<"]([^<>"]+)[>"]', re.MULTILINE)


def included_headers(root):
    """Repo-relative paths that some C++ file under INCLUDER_DIRS includes.

    Each include path is resolved both against src/ (the project's include
    root) and against the including file's directory; both candidates are
    recorded, since only the one that names a real header matters. A .cpp
    including its own header (same directory and stem) is not recorded for
    it: a header only its implementation includes has no user.
    """
    included = set()
    for top in INCLUDER_DIRS:
        for dirpath, _, filenames in os.walk(os.path.join(root, top)):
            for name in filenames:
                if not name.endswith(SOURCE_EXTS + (".inc",)):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                rel = os.path.relpath(path, root)
                here = os.path.dirname(rel)
                own_stem = os.path.splitext(os.path.normpath(rel))[0]
                for inc in INCLUDE_RX.findall(text):
                    for cand in (os.path.join("src", inc),
                                 os.path.join(here, inc)):
                        cand = os.path.normpath(cand)
                        if os.path.splitext(cand)[0] != own_stem:
                            included.add(cand)
    return included


def src_headers(relpath):
    return in_dirs("src")(relpath) and relpath.endswith(HEADER_EXTS)


def make_check_orphan_header(included):
    """Builds the orphan-header check over a set from included_headers()."""

    def check(relpath, raw, stripped):
        if os.path.normpath(relpath) in included:
            return []
        return [
            (
                1,
                "header that no file in src/ (other than its own .cpp), "
                "bench/, examples/ or perfbench/ includes — only tests, if "
                "anything, use it; include it where it is used or delete it",
            )
        ]

    return check


RULES = [
    ("bare-assert", in_dirs("src", "tests", "bench"), check_bare_assert),
    ("nondeterminism", in_dirs("src"), check_nondeterminism),
    ("atomic-shared-ptr", in_dirs("src", "tests", "bench"),
     check_atomic_shared_ptr),
    ("raw-sync", in_dirs("src", "tests", "bench"), check_raw_sync),
    ("nolint-discipline", in_dirs("src", "tests", "bench"),
     check_nolint_discipline),
    ("nn-alloc", in_dirs(os.path.join("src", "nn")), check_nn_alloc),
    ("raw-intrinsics", in_dirs("src", "tests", "bench"),
     check_raw_intrinsics),
    ("raw-thread", in_dirs("src"), check_raw_thread),
]


# ---------------------------------------------------------------------------
# Driver


def load_allowlist(path):
    """Parses `<rule-id> <path>` pairs; returns a set of (rule, relpath)."""
    allow = set()
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as f:
        for raw_line in f:
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: malformed allowlist line: {raw_line.rstrip()!r} "
                    "(expected '<rule-id> <path>')"
                )
            allow.add((parts[0], os.path.normpath(parts[1])))
    return allow


def collect_files(root, targets):
    files = []
    for target in targets:
        abs_target = os.path.join(root, target)
        if os.path.isfile(abs_target):
            if abs_target.endswith(SOURCE_EXTS):
                files.append(os.path.normpath(target))
            continue
        if not os.path.isdir(abs_target):
            raise FileNotFoundError(f"no such file or directory: {target}")
        for dirpath, dirnames, filenames in os.walk(abs_target):
            dirnames.sort()
            # Negative-compile fixtures intentionally violate invariants.
            dirnames[:] = [d for d in dirnames if d != "static_analysis"]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    files.append(os.path.normpath(rel))
    return files


def lint_tree(root, targets, allowlist):
    violations = []
    rules = RULES + [
        ("orphan-header", src_headers,
         make_check_orphan_header(included_headers(root)))
    ]
    for relpath in collect_files(root, targets):
        with open(os.path.join(root, relpath), encoding="utf-8") as f:
            raw = f.read()
        stripped = strip_comments_and_strings(raw)
        for rule_id, applies, check in rules:
            if not applies(relpath):
                continue
            if (rule_id, relpath) in allowlist:
                continue
            for lineno, message in check(relpath, raw, stripped):
                violations.append((relpath, lineno, rule_id, message))
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="DBAugur project-invariant linter"
    )
    parser.add_argument(
        "targets", nargs="+", help="directories or files to lint, e.g. src tests"
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (targets and allowlist paths are relative to it)",
    )
    parser.add_argument(
        "--allowlist",
        default=None,
        help="allowlist file (default: <root>/tools/lint_allowlist.txt)",
    )
    args = parser.parse_args(argv)

    allowlist_path = args.allowlist or os.path.join(
        args.root, "tools", "lint_allowlist.txt"
    )
    try:
        allowlist = load_allowlist(allowlist_path)
        violations = lint_tree(args.root, args.targets, allowlist)
    except (FileNotFoundError, ValueError) as e:
        print(f"lint: error: {e}", file=sys.stderr)
        return 2

    for relpath, lineno, rule_id, message in violations:
        print(f"{relpath}:{lineno}: [{rule_id}] {message}")
    if violations:
        print(
            f"lint: {len(violations)} violation(s); suppress known-good cases "
            f"in {os.path.relpath(allowlist_path, args.root)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
