#!/usr/bin/env python3
"""Lists the src/ functions that no bench, example or perfbench binary keeps.

  python3 tools/unreferenced.py

Configures the root project and perfbench/ into build-unreferenced/ at -O0
with -ffunction-sections and links with -Wl,--gc-sections, so each linked
binary keeps only the functions its code can reach (and the virtual ones of
the classes it constructs). It builds every bench_* and example_* target and
perfbench, then prints every text symbol defined in src/'s static libraries
(nm --defined-only) that none of those binaries keeps, demangled and grouped
by object file. Instances of standard-library templates are skipped.

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
         "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections",
         "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
TEXT_TYPES = set("TtWw")
# Mangled names of functions in namespace std (St and its abbreviations Sa,
# Sb, Ss, Si, So, Sd) or in __gnu_cxx, including members of their classes.
STD_SYMBOL = re.compile(r"^_Z(?:N[rVKRO]*)?(?:S[tabsiod]|9__gnu_cxx)")


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
    """{object file: set of mangled text symbols} defined in path."""
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
            objects.setdefault(current, set()).add(parts[2])
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
            kept |= symbols

    total = 0
    for lib in sorted(glob.glob(os.path.join(root_dir, "src", "libdbaugur_*.a"))):
        for obj, symbols in sorted(text_symbols(lib).items()):
            missing = [s for s in symbols - kept if not STD_SYMBOL.match(s)]
            if not missing:
                continue
            # A constructor's or destructor's variants share one name.
            names = sorted(set(demangle(missing)))
            print("%s: %s" % (os.path.basename(lib), obj))
            for name in names:
                print("  " + name)
            total += len(names)
    print("%d functions defined in src/ are kept by no bench, example or "
          "perfbench binary" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
