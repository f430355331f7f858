#!/usr/bin/env python3
"""Lists the src/ functions that no bench, example or perfbench binary keeps.

  python3 tools/unreferenced.py

Configures the root project and perfbench/ into build-unreferenced/ at -O0
with -ffunction-sections and links with -Wl,--gc-sections, so each linked
binary keeps only the functions its code can reach (and the virtual ones of
the classes it constructs). -fkeep-inline-functions emits every inline
function too, so a function defined in a header counts like any other. It
builds every bench_* and example_* target and perfbench, then prints every
text symbol of namespace dbaugur defined in src/'s static libraries (nm
--defined-only) that none of those binaries keeps, demangled, once per name,
grouped by the first object file that defines it. Standard-library
instances and the inline functions of system headers are skipped, and so
are the names the inline flag emits by construction (FILTERS); the last
lines count each filter.

What it prints is reached only from tests, or from nothing: candidates for
deletion, or for use. Names kept on purpose are listed in ROADMAP.md. There
are no flags and no gate: the exit status is 0, and a failed step is
reported on stderr.
"""

import glob
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-unreferenced")
FLAGS = ["-DCMAKE_BUILD_TYPE=Debug",
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections "
         "-fkeep-inline-functions",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
TEXT_TYPES = set("TtWw")
# Mangled names of functions in namespace dbaugur, members of its classes and
# entities local to its functions.
PROJECT_SYMBOL = re.compile(r"^_ZZ?N[rVKRO]*7dbaugur")
# Objects compiled at -O3 with or without ISA flags (src/CMakeLists.txt).
O3_OBJECT = re.compile(r"^(?:simd_tier_\w+|gemm|lstm_kernels)\.cpp\.o$")
# The static invoker and the function-pointer conversion of a captureless
# lambda; its body, operator(), is not matched.
LAMBDA_CONVERSION = re.compile(r"#\d+\}::(?:_FUN\(|operator [^(])")


def special_member(name):
    """True for a constructor or destructor: Class::Class( or Class::~Class(."""
    name = name.replace("(anonymous namespace)", "{anonymous}")
    depth, parts, start = 0, [], 0
    for i, c in enumerate(name):
        if c in "<({":
            if c == "(" and depth == 0:
                parts.append(name[start:i])
                break
            depth += 1
        elif c in ">)}":
            depth -= 1
        elif c == ":" and depth == 0 and name.startswith("::", i):
            parts.append(name[start:i])
            start = i + 2
    if len(parts) < 2:
        return False
    return parts[-1].split("<")[0].lstrip("~") == parts[-2].split("<")[0]


# The names -fkeep-inline-functions emits by construction, none of them a
# lead, as (label, test). A test sees the demangled name and every (library,
# object, nm type) that defines it.
FILTERS = [
    # The -O3 TUs inline these by design.
    ("SIMD ISA wrappers and helpers inlined into -O3 kernel TUs",
     lambda name, defs: name.startswith("dbaugur::simd::isa_") or
     all(O3_OBJECT.match(obj) and kind != "T" for _, obj, kind in defs)),
    # Nearly all are generated for aggregates and StatusOr instances. One
    # defined out of line (nm type T) is still listed.
    ("inline constructors and destructors",
     lambda name, defs: special_member(name) and
     all(kind != "T" for _, _, kind in defs)),
    ("function-pointer conversions of captureless lambdas",
     lambda name, defs: LAMBDA_CONVERSION.search(name)),
    # They run at compile time.
    ("constexpr table builders in sql/tokenizer.cpp",
     lambda name, defs: re.match(
         r"^dbaugur::sql::\(anonymous namespace\)::Make\w+\(\)$", name)),
]


def run(cmd):
    """Runs cmd quietly; returns True on success, else prints its output."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        sys.stderr.write("unreferenced: failed: %s\n" % " ".join(cmd))
    return result.returncode == 0


def targets(subdir, prefix):
    names = sorted(os.path.splitext(os.path.basename(p))[0]
                   for p in glob.glob(os.path.join(ROOT, subdir, "*.cpp")))
    return [(prefix + n, os.path.join(BUILD, "root", subdir, n)) for n in names]


def text_symbols(path):
    """{object file: {mangled text symbol: nm type}} defined in path."""
    out = subprocess.run(["nm", "--defined-only", path],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True).stdout
    objects, current = {}, os.path.basename(path)
    for line in out.splitlines():
        header = re.match(r"^(\S+\.o):$", line)
        if header:
            current = header.group(1)
            continue
        parts = line.split()
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            objects.setdefault(current, {})[parts[2]] = parts[1]
    return objects


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols),
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def main():
    binaries = targets("bench", "bench_") + targets("examples", "example_")
    root_dir = os.path.join(BUILD, "root")
    perf_dir = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    ok = (run(["cmake", "-S", ROOT, "-B", root_dir] + FLAGS) and
          run(["cmake", "--build", root_dir, "-j", jobs, "--target"] +
              [name for name, _ in binaries]) and
          run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", perf_dir] +
              FLAGS) and
          run(["cmake", "--build", perf_dir, "-j", jobs, "--target",
               "perfbench"]))
    if not ok:
        return 0

    kept = set()
    for path in [p for _, p in binaries] + [os.path.join(perf_dir, "perfbench")]:
        for symbols in text_symbols(path).values():
            kept.update(symbols)

    # A constructor's or destructor's variants share one name, and an inline
    # function is defined in every object that includes its header.
    defs = {}
    for lib in sorted(glob.glob(os.path.join(root_dir, "src", "libdbaugur_*.a"))):
        for obj, symbols in sorted(text_symbols(lib).items()):
            missing = sorted(s for s in symbols
                             if s not in kept and PROJECT_SYMBOL.match(s))
            for symbol, name in zip(missing, demangle(missing)):
                defs.setdefault(name, []).append(
                    (os.path.basename(lib), obj, symbols[symbol]))

    listed, filtered = {}, [0] * len(FILTERS)
    for name, where in defs.items():
        hit = [i for i, (_, match) in enumerate(FILTERS) if match(name, where)]
        if hit:
            filtered[hit[0]] += 1
        else:
            listed.setdefault(where[0][:2], []).append(name)
    for (lib, obj), names in sorted(listed.items()):
        print("%s: %s" % (lib, obj))
        for name in sorted(names):
            print("  " + name)
    print("%d functions defined in src/ are kept by no bench, example or "
          "perfbench binary" % sum(len(names) for names in listed.values()))
    for (label, _), count in zip(FILTERS, filtered):
        print("  filtered: %d %s" % (count, label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
