#!/usr/bin/env python3
"""Self-tests for tools/lint.py.

Each rule gets one violating and one clean fixture, written into a temp-dir
mini-repo (src/, tests/, src/nn/ as needed) so directory scoping is exercised
for real. Exit codes are pinned: 0 clean, 1 violations, 2 usage error.

Run directly (`python3 tests/lint_test.py`) or via ctest.
"""

import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "tools", "lint.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import lint  # noqa: E402  (path set up just above)


class FixtureRepo:
    """A throwaway repo root with helpers to drop files and run the linter."""

    def __init__(self, tmpdir):
        self.root = tmpdir

    def write(self, relpath, text):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    def include_from_bench(self, *headers):
        """Includes src-relative `headers` from a bench/ file, so fixtures
        that are about another rule do not trip orphan-header."""
        self.write(
            "bench/includes.cpp",
            "".join(f'#include "{h}"\n' for h in headers),
        )

    def run(self, *targets, allowlist=None):
        cmd = [sys.executable, LINT, "--root", self.root]
        if allowlist is not None:
            cmd += ["--allowlist", os.path.join(self.root, allowlist)]
        else:
            # Point at a nonexistent file so the real repo allowlist never
            # leaks into fixture runs.
            cmd += ["--allowlist", os.path.join(self.root, "no_allowlist.txt")]
        cmd += list(targets)
        return subprocess.run(
            cmd, capture_output=True, text=True, check=False
        )


class LintRuleTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.repo = FixtureRepo(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def assert_violation(self, result, rule_id, relpath):
        self.assertEqual(
            result.returncode, 1,
            f"expected exit 1, got {result.returncode}\n"
            f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}",
        )
        self.assertIn(f"[{rule_id}]", result.stdout)
        self.assertIn(relpath, result.stdout)

    def assert_clean(self, result):
        self.assertEqual(
            result.returncode, 0,
            f"expected exit 0, got {result.returncode}\n"
            f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}",
        )
        self.assertEqual(result.stdout, "")

    # -- bare-assert --------------------------------------------------------

    def test_bare_assert_violating(self):
        self.repo.write(
            "src/a.cpp",
            "#include <cassert>\nvoid F(int x) { assert(x > 0); }\n",
        )
        self.assert_violation(self.repo.run("src"), "bare-assert", "src/a.cpp")

    def test_bare_assert_clean(self):
        self.repo.write(
            "src/a.cpp",
            "// assert() is banned; DBAUGUR_CHECK survives -DNDEBUG.\n"
            "static_assert(sizeof(int) == 4);\n"
            'void F(int x) { DBAUGUR_CHECK(x > 0, "x"); }\n'
            "void G() { my_assert(1); }\n",
        )
        self.assert_clean(self.repo.run("src"))

    def test_bare_assert_in_string_literal_is_ignored(self):
        self.repo.write(
            "src/a.cpp",
            'const char* kMsg = "call assert(x) here";\n',
        )
        self.assert_clean(self.repo.run("src"))

    # -- nondeterminism -----------------------------------------------------

    def test_nondeterminism_violating(self):
        self.repo.write(
            "src/a.cpp",
            "#include <cstdlib>\nint Draw() { return std::rand(); }\n",
        )
        self.assert_violation(
            self.repo.run("src"), "nondeterminism", "src/a.cpp"
        )

    def test_nondeterminism_time_and_clock(self):
        self.repo.write(
            "src/a.cpp",
            "#include <chrono>\n"
            "auto T() { return std::chrono::system_clock::now(); }\n"
            "long U() { return time(nullptr); }\n",
        )
        result = self.repo.run("src")
        self.assertEqual(result.returncode, 1)
        self.assertIn("system_clock::now()", result.stdout)
        self.assertIn("time(nullptr)", result.stdout)

    def test_nondeterminism_scoped_to_src(self):
        # The same construct in tests/ is fine — only src/ must be replayable.
        self.repo.write(
            "tests/a_test.cpp",
            "#include <random>\nstd::random_device rd;\n",
        )
        self.assert_clean(self.repo.run("tests"))

    def test_nondeterminism_clean(self):
        self.repo.write(
            "src/a.cpp",
            "// steady_clock is monotonic and allowed for durations.\n"
            "#include <chrono>\n"
            "auto T() { return std::chrono::steady_clock::now(); }\n"
            "int Rand() { return 4; }\n",
        )
        self.assert_clean(self.repo.run("src"))

    # -- atomic-shared-ptr --------------------------------------------------

    def test_atomic_shared_ptr_violating(self):
        self.repo.write(
            "src/a.h",
            "#include <atomic>\n#include <memory>\n"
            "std::atomic<std::shared_ptr<int>> g_ptr;\n",
        )
        self.assert_violation(
            self.repo.run("src"), "atomic-shared-ptr", "src/a.h"
        )

    def test_atomic_shared_ptr_clean(self):
        self.repo.write(
            "src/a.h",
            "#include <atomic>\n#include <memory>\n"
            "std::atomic<int> g_count;\nstd::shared_ptr<int> g_ptr;\n",
        )
        self.repo.include_from_bench("a.h")
        self.assert_clean(self.repo.run("src"))

    # -- raw-sync -----------------------------------------------------------

    def test_raw_sync_mutex_violating(self):
        self.repo.write(
            "src/serve/a.cpp",
            "#include <mutex>\n"
            "std::mutex g_mu;\n"
            "void F() { std::lock_guard<std::mutex> lock(g_mu); }\n",
        )
        self.assert_violation(self.repo.run("src"), "raw-sync", "src/serve/a.cpp")

    def test_raw_sync_condition_variable_violating(self):
        self.repo.write(
            "tests/a_test.cpp",
            "#include <condition_variable>\n"
            "std::condition_variable g_cv;\n",
        )
        self.assert_violation(
            self.repo.run("tests"), "raw-sync", "tests/a_test.cpp"
        )

    def test_raw_sync_wrapper_header_exempt(self):
        self.repo.write(
            "src/common/mutex.h",
            "#include <mutex>\n"
            "class Mutex { std::mutex mu_; };\n",
        )
        self.repo.include_from_bench("common/mutex.h")
        self.assert_clean(self.repo.run("src"))

    def test_raw_sync_clean(self):
        self.repo.write(
            "src/serve/a.cpp",
            "// A comment saying std::mutex must not trip the code rule.\n"
            "#include \"common/mutex.h\"\n"
            "Mutex g_mu;\n"
            "void F() { MutexLock lock(&g_mu); }\n",
        )
        self.assert_clean(self.repo.run("src"))

    # -- nolint-discipline --------------------------------------------------

    def test_bare_nolint_violating(self):
        self.repo.write(
            "src/a.cpp", "int x = getenv_thing();  // NOLINT\n"
        )
        self.assert_violation(
            self.repo.run("src"), "nolint-discipline", "src/a.cpp"
        )

    def test_nolint_without_reason_violating(self):
        self.repo.write(
            "src/a.cpp",
            "int x = f();  // NOLINT(some-check)\n",
        )
        self.assert_violation(
            self.repo.run("src"), "nolint-discipline", "src/a.cpp"
        )

    def test_nolint_with_reason_clean(self):
        self.repo.write(
            "src/a.cpp",
            "// Static-init is single-threaded, so getenv is safe here.\n"
            "int x = f();  // NOLINT(concurrency-mt-unsafe)\n"
            "int y = g();  // NOLINT(some-check) widening cast is intended\n",
        )
        self.assert_clean(self.repo.run("src"))

    # -- nn-alloc -----------------------------------------------------------

    def test_nn_alloc_violating(self):
        self.repo.write(
            "src/nn/layer.cpp",
            "float* Make(int n) { return new float[n]; }\n",
        )
        self.assert_violation(
            self.repo.run("src"), "nn-alloc", "src/nn/layer.cpp"
        )

    def test_nn_alloc_malloc_violating(self):
        self.repo.write(
            "src/nn/layer.cpp",
            "#include <cstdlib>\n"
            "void* Make(int n) { return malloc(n); }\n",
        )
        self.assert_violation(
            self.repo.run("src"), "nn-alloc", "src/nn/layer.cpp"
        )

    def test_nn_alloc_scoped_to_nn(self):
        # `new` outside src/nn is allowed (e.g. make_unique internals aside,
        # service setup code may allocate).
        self.repo.write(
            "src/serve/a.cpp", "int* Make() { return new int(3); }\n"
        )
        self.assert_clean(self.repo.run("src"))

    def test_nn_alloc_clean(self):
        self.repo.write(
            "src/nn/layer.cpp",
            "// Buffers come from the workspace arena; 'renewal' is a word\n"
            "// containing new and must not trip the token match.\n"
            "int renewal = 0;\n"
            "float* Get(Workspace* w) { return w->Get(16); }\n",
        )
        self.assert_clean(self.repo.run("src"))

    # -- raw-intrinsics -----------------------------------------------------

    def test_raw_intrinsics_call_violating(self):
        self.repo.write(
            "src/nn/fast.cpp",
            "#include <immintrin.h>\n"
            "__m256d Add(__m256d a, __m256d b) { return _mm256_add_pd(a, b); }\n",
        )
        result = self.repo.run("src")
        self.assert_violation(result, "raw-intrinsics", "src/nn/fast.cpp")
        # Call, vector type, and include each fire.
        self.assertIn("_mm* intrinsic call", result.stdout)
        self.assertIn("vector type", result.stdout)
        self.assertIn("intrinsics header include", result.stdout)

    def test_raw_intrinsics_builtin_violating(self):
        self.repo.write(
            "bench/b.cpp",
            "double F(double x) { return __builtin_ia32_sqrtsd(x); }\n",
        )
        self.assert_violation(
            self.repo.run("bench"), "raw-intrinsics", "bench/b.cpp"
        )

    def test_raw_intrinsics_wrapper_header_exempt(self):
        self.repo.write(
            "src/common/simd.h",
            "#include <immintrin.h>\n"
            "inline __m128d Load(const double* p) { return _mm_loadu_pd(p); }\n",
        )
        self.repo.include_from_bench("common/simd.h")
        self.assert_clean(self.repo.run("src"))

    def test_raw_intrinsics_clean(self):
        self.repo.write(
            "src/nn/fast.cpp",
            "// Words like _mm_prefix in comments and commit_mm_log() calls\n"
            "// must not trip the token match.\n"
            '#include "common/simd.h"\n'
            "int commit_mm_log();\n"
            "namespace vec = dbaugur::simd::best;\n",
        )
        self.assert_clean(self.repo.run("src"))

    # -- raw-thread ---------------------------------------------------------

    def test_raw_thread_violating(self):
        self.repo.write(
            "src/serve/runner.cpp",
            "#include <thread>\n"
            "void Go() { std::thread t([] {}); t.join(); }\n",
        )
        result = self.repo.run("src")
        self.assert_violation(result, "raw-thread", "src/serve/runner.cpp")
        self.assertIn("bare std::thread", result.stdout)

    def test_raw_thread_member_violating(self):
        self.repo.write(
            "src/serve/loop.h",
            "#include <thread>\n"
            "class Loop { std::thread worker_; };\n",
        )
        self.assert_violation(
            self.repo.run("src"), "raw-thread", "src/serve/loop.h"
        )

    def test_raw_thread_owner_files_exempt(self):
        # common/thread_pool is the one owner; the retrain worker pool that
        # used to be a second one is an ordinary file now.
        self.repo.write(
            "src/common/thread_pool.h",
            "#include <thread>\n"
            "class ThreadPool { std::thread workers_[4]; };\n",
        )
        self.repo.write(
            "src/serve/retrain_workers.cpp",
            "#include <thread>\n"
            "void Spawn() { std::thread t([] {}); t.detach(); }\n",
        )
        self.repo.include_from_bench("common/thread_pool.h")
        result = self.repo.run("src")
        self.assert_violation(
            result, "raw-thread", "src/serve/retrain_workers.cpp"
        )
        self.assertNotIn("src/common/thread_pool.h", result.stdout)

    def test_raw_thread_clean(self):
        self.repo.write(
            "src/serve/timing.cpp",
            "#include <thread>\n"
            "unsigned Cores() { return std::thread::hardware_concurrency(); }\n"
            "void Nap() { std::this_thread::yield(); }\n",
        )
        self.assert_clean(self.repo.run("src"))

    def test_raw_thread_scoped_to_src(self):
        self.repo.write(
            "tests/t.cpp",
            "#include <thread>\n"
            "void Race() { std::thread t([] {}); t.join(); }\n",
        )
        self.repo.write(
            "bench/b.cpp",
            "#include <thread>\n"
            "void Drive() { std::thread t([] {}); t.join(); }\n",
        )
        self.assert_clean(self.repo.run("tests", "bench"))

    # -- orphan-header ------------------------------------------------------

    def test_orphan_header_violating(self):
        self.repo.write("src/common/used.h", "int Used();\n")
        self.repo.write(
            "src/common/user.cpp",
            '#include "common/used.h"\n'
            '// #include "common/unused.h" is commented out: no include.\n'
            "int Twice() { return 2 * Used(); }\n",
        )
        self.repo.write("src/common/unused.h", "int Unused();\n")
        result = self.repo.run("src")
        self.assert_violation(result, "orphan-header", "src/common/unused.h")
        self.assertNotIn("src/common/used.h", result.stdout)

    def test_orphan_header_used_only_by_tests_or_own_cpp_violating(self):
        # A header that only its tests or its own .cpp include has no caller.
        for name in ("t", "own"):
            self.repo.write(f"src/mod/{name}.h", "int F();\n")
        self.repo.write("tests/t_test.cpp", '#include "mod/t.h"\n')
        self.repo.write("src/mod/own.cpp", '#include "own.h"\n')
        self.repo.write("src/mod/t.cpp", '#include "mod/t.h"\n')
        result = self.repo.run("src")
        self.assert_violation(result, "orphan-header", "src/mod/t.h")
        self.assert_violation(result, "orphan-header", "src/mod/own.h")

    def test_orphan_header_clean(self):
        # Includes count from src/ (another file than the header's own .cpp),
        # bench/, examples/ and perfbench/ even when only src/ is linted,
        # resolved against src/ or the including file's directory.
        for name in ("s", "b", "e", "p"):
            self.repo.write(f"src/mod/{name}.h", "int F();\n")
        self.repo.write("src/other/user.cpp", '#include "mod/s.h"\n')
        self.repo.write("bench/b.cpp", '#include "mod/b.h"\n')
        self.repo.write("examples/e.cpp", '#include "mod/e.h"\n')
        self.repo.write("perfbench/src/p.cpp", '#include "mod/p.h"\n')
        self.repo.write("src/mod/user.cpp", '#include "e.h"\n')
        self.assert_clean(self.repo.run("src"))

    def test_orphan_header_included_by_a_bench_clean(self):
        self.repo.write("src/ts/analysis.h", "double Acf();\n")
        self.repo.write("src/ts/analysis.cpp", '#include "ts/analysis.h"\n')
        self.repo.write("bench/fig2.cpp", '#include "ts/analysis.h"\n')
        self.assert_clean(self.repo.run("src"))

    def test_orphan_header_scoped_to_src(self):
        self.repo.write("tests/helpers.h", "int Helper();\n")
        self.repo.write("bench/bench_util.h", "int Util();\n")
        self.assert_clean(self.repo.run("tests", "bench"))

    # -- allowlist ----------------------------------------------------------

    def test_allowlist_suppresses_named_rule_and_file(self):
        self.repo.write(
            "src/a.cpp", "void F(int x) { assert(x); }\n"
        )
        self.repo.write("allow.txt", "bare-assert src/a.cpp\n")
        self.assert_clean(self.repo.run("src", allowlist="allow.txt"))

    def test_allowlist_is_per_rule(self):
        self.repo.write(
            "src/a.cpp",
            "void F(int x) { assert(x); }\nint r = std::rand();\n",
        )
        self.repo.write("allow.txt", "bare-assert src/a.cpp\n")
        result = self.repo.run("src", allowlist="allow.txt")
        self.assertEqual(result.returncode, 1)
        self.assertIn("[nondeterminism]", result.stdout)
        self.assertNotIn("[bare-assert]", result.stdout)

    def test_allowlist_comments_and_blanks_ok(self):
        self.repo.write("src/a.cpp", "int x = 0;\n")
        self.repo.write(
            "allow.txt", "# a comment\n\nbare-assert src/a.cpp  # trailing\n"
        )
        self.assert_clean(self.repo.run("src", allowlist="allow.txt"))

    def test_malformed_allowlist_is_usage_error(self):
        self.repo.write("src/a.cpp", "int x = 0;\n")
        self.repo.write("allow.txt", "just-one-token\n")
        result = self.repo.run("src", allowlist="allow.txt")
        self.assertEqual(result.returncode, 2)
        self.assertIn("malformed", result.stderr)

    # -- exit codes / CLI ---------------------------------------------------

    def test_missing_target_is_usage_error(self):
        result = self.repo.run("no_such_dir")
        self.assertEqual(result.returncode, 2)
        self.assertIn("no such file or directory", result.stderr)

    def test_static_analysis_fixtures_are_skipped(self):
        # Negative-compile samples intentionally violate invariants and must
        # not be linted.
        self.repo.write(
            "tests/static_analysis/race.cpp",
            "void F(int x) { assert(x); }\n",
        )
        self.repo.write("tests/ok_test.cpp", "int x = 0;\n")
        self.assert_clean(self.repo.run("tests"))


class StripperTest(unittest.TestCase):
    """Unit tests for the comment/string stripper (line numbers must hold)."""

    def test_preserves_line_count(self):
        src = "int a; // c\n/* b\nlock */ int d;\nconst char* s = \"x\ny\";\n"
        self.assertEqual(
            len(lint.strip_comments_and_strings(src).splitlines()),
            len(src.splitlines()),
        )

    def test_strips_block_comment_content(self):
        out = lint.strip_comments_and_strings("/* assert(x) */ int y;")
        self.assertNotIn("assert", out)
        self.assertIn("int y;", out)

    def test_strips_escaped_quote_in_string(self):
        out = lint.strip_comments_and_strings(
            'const char* s = "he said \\"assert(x)\\""; int z;'
        )
        self.assertNotIn("assert", out)
        self.assertIn("int z;", out)

    def test_raw_string_stripped(self):
        out = lint.strip_comments_and_strings(
            'auto s = R"(assert(x) // not a comment)"; int q;'
        )
        self.assertNotIn("assert", out)
        self.assertIn("int q;", out)

    def test_char_literal_stripped(self):
        out = lint.strip_comments_and_strings("char c = '\\''; int w;")
        self.assertIn("int w;", out)


if __name__ == "__main__":
    unittest.main()
