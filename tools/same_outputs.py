#!/usr/bin/env python3
"""Checks that two build trees print the same outputs.

  python3 tools/same_outputs.py PARENT_BUILD CHANGE_BUILD

Each argument is a CMake build tree of the repository (build-release/ of two
checkouts, say). The tool runs, from both trees, every program whose stdout
holds no timing, thread-count or host field: the four examples and the
fig2, fig5, fig6, fig7, fig8, fig9 and WFGAN-ablation benches. It compares
their stdout byte for byte and prints one line per program: "identical", or
"differing" with the first line that differs. A program that is missing or
exits non-zero in either tree is reported as "failed". Stderr (log lines) is
not compared.

Exit status: 0 when every program is identical, 1 when any differs or
failed, 2 on a usage error. The two trees run each program side by side;
the whole check takes minutes (fig8_index_selection alone about two), so it
is run by hand for changes that must not move any output, not in CI.
"""

import os
import subprocess
import sys

PROGRAMS = [
    "examples/quickstart",
    "examples/index_advisor",
    "examples/load_balancer",
    "examples/sql_templates",
    "bench/fig2_workload_patterns",
    "bench/fig5_forecast_accuracy",
    "bench/fig6_horizon",
    "bench/fig7_ensemble",
    "bench/fig8_index_selection",
    "bench/fig9_migration",
    "bench/ablation_wfgan",
]


def first_difference(a, b):
    """Returns (1-based line number, old line, new line) of the first
    differing line of two byte strings."""
    old_lines = a.splitlines()
    new_lines = b.splitlines()
    for i in range(max(len(old_lines), len(new_lines))):
        old = old_lines[i] if i < len(old_lines) else b"<end of output>"
        new = new_lines[i] if i < len(new_lines) else b"<end of output>"
        if old != new:
            return i + 1, old.decode(errors="replace"), new.decode(
                errors="replace")
    # Only the trailing newline differs.
    return len(old_lines) + 1, "<end of output>", "<end of output>"


def compare(program, parent_build, change_build):
    """Runs `program` from both trees; returns (same, report line)."""
    paths = [os.path.join(b, program) for b in (parent_build, change_build)]
    for path in paths:
        if not os.access(path, os.X_OK):
            return False, "%s: failed (no executable %s)" % (program, path)
    procs = [subprocess.Popen([p], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) for p in paths]
    outs = [proc.communicate()[0] for proc in procs]
    for path, proc in zip(paths, procs):
        if proc.returncode != 0:
            return False, "%s: failed (%s exited %d)" % (program, path,
                                                         proc.returncode)
    if outs[0] == outs[1]:
        return True, "%s: identical" % program
    line, old, new = first_difference(outs[0], outs[1])
    return False, "%s: differing at line %d\n  parent: %s\n  change: %s" % (
        program, line, old, new)


def main(argv):
    if len(argv) != 3 or not all(os.path.isdir(d) for d in argv[1:]):
        sys.stderr.write(__doc__)
        return 2
    all_same = True
    for program in PROGRAMS:
        same, report = compare(program, argv[1], argv[2])
        print(report, flush=True)
        all_same = all_same and same
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
