#!/usr/bin/env python3
"""Compares the numeric leaves of two benchmark JSON files.

  python3 tools/bench_diff.py OLD.json NEW.json

Each file is flattened into dotted paths such as
"wfgan_lstm_epoch.fused_ms". A list element is keyed by its "name" field when
it has one ("kernels.lstm_dwh.fused_ns"), else by its index ("runs.0.ms").
Every path found in both files is printed with the old value, the new value
and new/old ("n/a" when the old value is 0); the paths found in only one file
are listed after them. Values print exactly (shortest round-trip form), so
equal leaves read equal and bit-identity checks can rely on the output.
Booleans and strings are not compared.

There are no thresholds: the exit status is 0, or 2 when an input cannot be
read or is not JSON. Gates belong in the benches and BENCHMARK.json.
"""

import json
import sys


def flatten(node, prefix="", out=None):
    """Returns {dotted path: number} for every numeric leaf, in file order."""
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            flatten(value, prefix + str(key) + ".", out)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            key = index
            if isinstance(value, dict) and isinstance(value.get("name"), str):
                key = value["name"]
            flatten(value, prefix + str(key) + ".", out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix[:-1]] = node
    return out


def diff(old, new, old_name, new_name):
    """Returns the report for two parsed JSON documents as a list of lines."""
    a = flatten(old)
    b = flatten(new)
    both = [p for p in a if p in b]
    lines = []
    if both:
        rows = [(p, repr(a[p]), repr(b[p]),
                 "n/a" if a[p] == 0 else "%.3f" % (b[p] / a[p])) for p in both]
        rows.insert(0, ("path", "old", "new", "new/old"))
        widths = [max(len(r[i]) for r in rows) for i in range(4)]
        for r in rows:
            lines.append("%-*s  %*s  %*s  %*s" % (widths[0], r[0], widths[1],
                                                  r[1], widths[2], r[2],
                                                  widths[3], r[3]))
    for name, mine, theirs in ((old_name, a, b), (new_name, b, a)):
        only = [p for p in mine if p not in theirs]
        if only:
            lines.append("only in %s:" % name)
            lines.extend("  %s = %s" % (p, repr(mine[p])) for p in only)
    return lines


def main(argv):
    if len(argv) != 3:
        print("usage: bench_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print("bench_diff: cannot read %s: %s" % (path, e),
                  file=sys.stderr)
            return 2
    old, new = docs
    for line in diff(old, new, argv[1], argv[2]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
