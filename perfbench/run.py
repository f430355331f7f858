#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace 0

The first call configures and builds perfbench/ (and the library sources it
links) into .bench_build/perfbench; later calls rebuild incrementally. Build
output goes to standard error. The harness's arithmetic self-test runs before
every measurement. The last line of standard output is the harness's result
line; the exit status is the harness's (non-zero when an output check
failed, or when the sources cannot be built).

`--workload all` runs every workload in turn, each in its own process, and
prints every report; it exits non-zero if any run did.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ["diverse-scale", "paper-ensemble", "steady-stream"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src" % ROOT)
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs,
           "--target", "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_sha():
    # Only when the checkout is itself a repository: git would otherwise
    # search the directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """sha256 over the library sources and the benchmark, by relative path,
    so a result names the code it measured even without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_one(workload, args, sha, digest):
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", RESULTS_DIR,
           "--git-sha", sha, "--source-digest", digest]
    return subprocess.run(cmd).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    selftest = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")])
    if selftest.returncode != 0:
        log("perfbench: arithmetic self-test failed")
        return 3
    sha, digest = git_sha(), source_digest()
    if args.workload != "all":
        return run_one(args.workload, args, sha, digest)
    status = 0
    for workload in WORKLOADS:
        status = max(status, run_one(workload, args, sha, digest))
    return status


if __name__ == "__main__":
    sys.exit(main())
