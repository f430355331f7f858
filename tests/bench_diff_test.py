#!/usr/bin/env python3
"""Self-tests for tools/bench_diff.py.

Run directly (`python3 tests/bench_diff_test.py`) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(REPO_ROOT, "tools", "bench_diff.py")

sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
import bench_diff  # noqa: E402  (path set up just above)


class FlattenTest(unittest.TestCase):
    def test_nested_objects_become_dotted_paths(self):
        doc = {"a": 1, "b": {"c": 2.5, "d": {"e": 3}}, "s": "x", "t": True}
        self.assertEqual(bench_diff.flatten(doc),
                         {"a": 1, "b.c": 2.5, "b.d.e": 3})

    def test_list_elements_key_by_name_else_index(self):
        doc = {"kernels": [{"name": "mlp_l1", "ns": 5.0}, {"ns": 7.0}],
               "runs": [4, 6]}
        self.assertEqual(bench_diff.flatten(doc),
                         {"kernels.mlp_l1.ns": 5.0, "kernels.1.ns": 7.0,
                          "runs.0": 4, "runs.1": 6})


class DiffTest(unittest.TestCase):
    def test_common_paths_show_old_new_and_ratio(self):
        lines = bench_diff.diff({"k": [{"name": "a", "ms": 2.0}]},
                                {"k": [{"name": "a", "ms": 3.0}]}, "o", "n")
        self.assertEqual(lines[1].split(), ["k.a.ms", "2.0", "3.0", "1.500"])

    def test_values_print_exactly(self):
        lines = bench_diff.diff({"wape": 0.38169404954774028},
                                {"wape": 0.38169404954774034}, "o", "n")
        old, new = lines[1].split()[1:3]
        self.assertNotEqual(old, new)
        self.assertEqual(float(old), 0.38169404954774028)

    def test_zero_old_value_has_no_ratio(self):
        lines = bench_diff.diff({"drops": 0}, {"drops": 4}, "o", "n")
        self.assertEqual(lines[1].split(), ["drops", "0", "4", "n/a"])

    def test_paths_in_one_file_only_are_listed(self):
        lines = bench_diff.diff({"kept": 1, "gone": 2},
                                {"kept": 1, "added": 3}, "old.json",
                                "new.json")
        self.assertIn("only in old.json:", lines)
        self.assertIn("  gone = 2", lines)
        self.assertIn("only in new.json:", lines)
        self.assertIn("  added = 3", lines)
        self.assertEqual(sum(1 for l in lines if l.startswith("kept")), 1)


class CommandLineTest(unittest.TestCase):
    def run_tool(self, *args):
        return subprocess.run([sys.executable, TOOL, *args],
                              capture_output=True, text=True)

    def test_exit_codes(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = os.path.join(tmp, "good.json")
            bad = os.path.join(tmp, "bad.json")
            with open(good, "w", encoding="utf-8") as f:
                json.dump({"wfgan_lstm_epoch": {"fused_ms": 97.5}}, f)
            with open(bad, "w", encoding="utf-8") as f:
                f.write("{not json")
            ok = self.run_tool(good, good)
            self.assertEqual(ok.returncode, 0)
            self.assertIn("wfgan_lstm_epoch.fused_ms", ok.stdout)
            self.assertEqual(self.run_tool(good, bad).returncode, 2)
            missing = os.path.join(tmp, "missing.json")
            self.assertEqual(self.run_tool(missing, good).returncode, 2)


if __name__ == "__main__":
    unittest.main()
