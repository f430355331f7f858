#!/usr/bin/env bash
# One-command correctness gate for DBAugur. Builds and tests the tree under:
#   1. Release            (-O2 -DNDEBUG — proves DBAUGUR_CHECK survives NDEBUG)
#                          plus the bench smokes and bench/table2_efficiency
#                          (cluster labels identical on scalar and SIMD tiers),
#                          and the clustering oracle and table2_efficiency
#                          again at DBAUGUR_SIMD=sse2
#   1a. Forced scalar     (the Release ctest suite again at DBAUGUR_SIMD=off,
#                          as CI's blocking forced-scalar job runs it; no
#                          rebuild, the tier is picked at run time)
#   1f. perfbench checks  (every repository-benchmark workload, traced, with
#                          its output checks; needs python3)
#   2. ASan + UBSan       (-fno-sanitize-recover=all, DCHECKs forced on)
#   2b. Fault injection   (serve_fault suite re-run under ASan with a
#                          DBAUGUR_FAULT_SPEC storm armed from the environment)
#   2c. Chaos harness     (end-to-end chaos slice re-run under ASan with a
#                          fault storm armed, plus bench/chaos_soak --smoke)
#   2d. Hang-storm smoke  (deadline cancellation / degraded-stale / unit
#                          budget slice re-run explicitly under ASan)
#   3. TSan               (skipped with a warning if the toolchain lacks it)
#   3b. Workers stress    (serve_workers suite, the status reads, the
#                          member-level fit tasks and the thread pool suite
#                          repeated under TSan — deadline tokens,
#                          checkpoint-vs-cancel races, stats()/Health()
#                          against cycles and readers, one ensemble's members
#                          fitting on different lanes, concurrent and nested
#                          ParallelFor calls)
#   4. clang-tidy on src/ (skipped with a warning if clang-tidy is absent)
#   5. thread-safety      (clang++ build with -Werror=thread-safety checking
#                          the DBAUGUR_GUARDED_BY annotations; skipped with a
#                          warning if no clang++ — set DBAUGUR_CLANG to point
#                          at one explicitly)
#   6. lint               (tools/lint.py project invariants + its self-tests;
#                          skipped with a warning if python3 is absent)
#
# Every future perf PR must pass this script before landing (see ROADMAP.md).
#
# Usage: tools/check.sh [--fast]
#   --fast  skip the chaos stage, TSan, clang-tidy, thread-safety and lint
#           (inner-loop use; CI runs the full set)
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

declare -a RESULTS=()
FAILED=0

note() { printf '\n\033[1;34m== %s ==\033[0m\n' "$*"; }
record() { RESULTS+=("$1: $2"); [[ "$2" == FAIL* ]] && FAILED=1; }

# build_and_test <name> <builddir> <extra cmake args...>
build_and_test() {
  local name="$1" dir="$2"
  shift 2
  note "$name: configure + build ($dir)"
  if ! cmake -B "$dir" -S . "$@" > "$dir.configure.log" 2>&1; then
    tail -30 "$dir.configure.log"
    record "$name" "FAIL (configure)"
    return 1
  fi
  if ! cmake --build "$dir" -j "$JOBS" > "$dir.build.log" 2>&1; then
    grep -E 'error|Error' "$dir.build.log" | head -30
    record "$name" "FAIL (build)"
    return 1
  fi
  note "$name: ctest"
  # Explicit --timeout so a deadlocked thread-pool test fails loudly instead
  # of hanging the whole gate (sanitizer trees run far slower than Release).
  if ! ctest --test-dir "$dir" --output-on-failure -j "$JOBS" --timeout 600; then
    record "$name" "FAIL (tests)"
    return 1
  fi
  record "$name" "OK"
}

# --- 1. Release: the configuration users actually run. -----------------------
build_and_test "release" build-release -DCMAKE_BUILD_TYPE=Release

# --- 1a. Forced scalar: the whole Release suite with SIMD dispatch off, the
# configuration every non-x86 or pre-SSE2 host runs. The scalar kernels must
# stay a complete, bit-identical mirror of the vector ones.
if [[ -x build-release/tests/common_test ]]; then
  note "ctest (Release, DBAUGUR_SIMD=off)"
  if DBAUGUR_SIMD=off ctest --test-dir build-release --output-on-failure \
      -j "$JOBS" --timeout 600; then
    record "release-scalar" "OK"
  else
    record "release-scalar" "FAIL (tests)"
  fi
else
  record "release-scalar" "SKIPPED (Release build failed)"
fi

# --- 1b. NN kernel bench smoke: the fused-GEMM fast path must run end to end
# and emit valid JSON (full numbers are committed as BENCH_nn_kernels.json).
# Runs once per SIMD tier: the host's best, then DBAUGUR_SIMD=sse2 and
# DBAUGUR_SIMD=off, so every dispatch path stays exercised end to end.
if [[ -x build-release/bench/nn_kernels ]]; then
  note "bench/nn_kernels --smoke (Release)"
  if ./build-release/bench/nn_kernels --smoke > /dev/null; then
    record "nn_kernels-smoke" "OK"
  else
    record "nn_kernels-smoke" "FAIL"
  fi
  note "bench/nn_kernels --smoke (Release, DBAUGUR_SIMD=sse2)"
  if DBAUGUR_SIMD=sse2 ./build-release/bench/nn_kernels --smoke > /dev/null; then
    record "nn_kernels-smoke-sse2" "OK"
  else
    record "nn_kernels-smoke-sse2" "FAIL"
  fi
  note "bench/nn_kernels --smoke (Release, DBAUGUR_SIMD=off)"
  if DBAUGUR_SIMD=off ./build-release/bench/nn_kernels --smoke > /dev/null; then
    record "nn_kernels-smoke-scalar" "OK"
  else
    record "nn_kernels-smoke-scalar" "FAIL"
  fi
else
  record "nn_kernels-smoke" "SKIPPED (Release build failed)"
fi

# --- 1c. Serve bench smoke: the snapshot read path must complete reads while
# a retrain is in flight (the binary exits non-zero otherwise) and emit valid
# JSON (full numbers are committed as BENCH_serve_throughput.json).
if [[ -x build-release/bench/serve_throughput ]]; then
  note "bench/serve_throughput --smoke (Release)"
  if ./build-release/bench/serve_throughput --smoke > /dev/null; then
    record "serve_throughput-smoke" "OK"
  else
    record "serve_throughput-smoke" "FAIL"
  fi
else
  record "serve_throughput-smoke" "SKIPPED (Release build failed)"
fi

# --- 1d. Sharded-serve bench smoke: every shard of the ShardedForecastService
# must complete snapshot reads while its retrain cycle is in flight (the
# binary exits non-zero if any shard's reads stall) and emit valid JSON (the
# full run's numbers get a committed file once its gates pass; ROADMAP item 9).
if [[ -x build-release/bench/serve_scale ]]; then
  note "bench/serve_scale --smoke (Release)"
  if ./build-release/bench/serve_scale --smoke > /dev/null; then
    record "serve_scale-smoke" "OK"
  else
    record "serve_scale-smoke" "FAIL"
  fi
else
  record "serve_scale-smoke" "SKIPPED (Release build failed)"
fi

# --- 1e. Table II efficiency bench: exits non-zero when cluster labels differ
# between the forced-scalar and the dispatched SIMD tier, through both the
# sequential AddTrace loop and the batch AddTraces sweep. Then the clustering
# oracle and the bench again at DBAUGUR_SIMD=sse2: ctest above covers the
# host's widest tier, and SSE2 reduces LB_Keogh over 2 partial sums instead
# of 4, so the sweep's decisions on its sums can differ in the last bit.
if [[ -x build-release/bench/table2_efficiency ]]; then
  note "bench/table2_efficiency (Release)"
  if ./build-release/bench/table2_efficiency > /dev/null; then
    record "table2_efficiency" "OK"
  else
    record "table2_efficiency" "FAIL"
  fi
  note "tests/cluster_batch_test (Release, DBAUGUR_SIMD=sse2)"
  if DBAUGUR_SIMD=sse2 ./build-release/tests/cluster_batch_test > /dev/null; then
    record "cluster-oracle-sse2" "OK"
  else
    record "cluster-oracle-sse2" "FAIL"
  fi
  note "bench/table2_efficiency (Release, DBAUGUR_SIMD=sse2)"
  if DBAUGUR_SIMD=sse2 ./build-release/bench/table2_efficiency > /dev/null; then
    record "table2_efficiency-sse2" "OK"
  else
    record "table2_efficiency-sse2" "FAIL"
  fi
else
  record "table2_efficiency" "SKIPPED (Release build failed)"
fi

# --- 1f. Repository benchmark output checks: every perfbench workload, traced,
# for a short run. No speed gates; the value is its correctness checks, among
# them the traced Retrainer::Rebuild replay (bit-identical to the published
# generation) and save/restore equality, which pin the training fast paths
# end to end. perfbench builds its own tree in .bench_build/.
if command -v python3 > /dev/null 2>&1; then
  note "perfbench: all workloads, traced, output checks"
  if python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 1 \
      > /dev/null; then
    record "perfbench-checks" "OK"
  else
    record "perfbench-checks" "FAIL"
  fi
else
  record "perfbench-checks" "SKIPPED (python3 not installed)"
fi

# --- 2. ASan + UBSan. --------------------------------------------------------
export UBSAN_OPTIONS="print_stacktrace=1:${UBSAN_OPTIONS:-}"
build_and_test "asan+ubsan" build-asan \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDBAUGUR_SANITIZE=address,undefined \
  -DDBAUGUR_ENABLE_DCHECKS=ON

# --- 2b. Fault injection under ASan: re-run the serve_fault suite with a
# deterministic fault storm armed via DBAUGUR_FAULT_SPEC. This exercises the
# env-gated chaos test (ServeFaultChaosTest, a GTEST_SKIP without the spec)
# and proves the injected-failure recovery paths are clean under the
# sanitizers, not just in Release. Single ctest invocation, 1-core friendly.
if [[ -f build-asan/CTestTestfile.cmake ]]; then
  note "fault injection (ASan): serve_fault suite with DBAUGUR_FAULT_SPEC armed"
  fault_spec='serve.retrain.build=at:0,2;serve.retrain.diverge=at:1;serve.ingest.corrupt=p:0.05:7'
  if DBAUGUR_FAULT_SPEC="$fault_spec" ctest --test-dir build-asan \
      --output-on-failure -j "$JOBS" --timeout 600 \
      -R 'FaultInjectionTest|BackoffTest|QuarantineTest|DegradedModeTest|CheckpointFaultTest|ServeFaultChaosTest'; then
    record "fault-injection" "OK"
  else
    record "fault-injection" "FAIL"
  fi
else
  record "fault-injection" "SKIPPED (ASan build failed)"
fi

# --- 2c. Chaos harness: the grammar-driven end-to-end slice (differential
# oracles, full-service resume equality, corpus replay) re-run under ASan with
# the same fault storm armed, plus the Release smoke matrix of the soak
# driver. Skipped by --fast — it overlaps the plain ASan ctest pass; the value
# here is the storm-armed rerun.
if [[ "$FAST" == 1 ]]; then
  record "chaos" "SKIPPED (--fast)"
else
  if [[ -f build-asan/CTestTestfile.cmake ]]; then
    note "chaos (ASan): e2e chaos slice with DBAUGUR_FAULT_SPEC armed"
    fault_spec='serve.retrain.build=at:0,2;serve.retrain.diverge=at:1;serve.ingest.corrupt=p:0.05:7'
    if DBAUGUR_FAULT_SPEC="$fault_spec" ctest --test-dir build-asan \
        --output-on-failure -j "$JOBS" --timeout 600 -R 'Chaos'; then
      record "chaos-asan" "OK"
    else
      record "chaos-asan" "FAIL"
    fi
  else
    record "chaos-asan" "SKIPPED (ASan build failed)"
  fi
  if [[ -x build-release/bench/chaos_soak ]]; then
    note "bench/chaos_soak --smoke (Release)"
    if ./build-release/bench/chaos_soak --smoke > /dev/null; then
      record "chaos-smoke" "OK"
    else
      record "chaos-smoke" "FAIL"
    fi
  else
    record "chaos-smoke" "SKIPPED (Release build failed)"
  fi
fi

# --- 2d. Hang-storm smoke under ASan: the deadline/cancellation slice —
# serve.retrain.hang|slow storms driving deadline cancellation,
# degraded-stale serving, the unit-budget chaos leg, and checkpoint-vs-cancel
# races. These tests arm their own storms via fault::Configure; running
# them by name keeps the recovery paths sanitizer-clean even if the
# broader -R patterns above drift.
if [[ "$FAST" == 1 ]]; then
  record "hang-storm-asan" "SKIPPED (--fast)"
elif [[ -f build-asan/CTestTestfile.cmake ]]; then
  note "hang-storm (ASan): deadline cancellation + unit-budget slice"
  if ctest --test-dir build-asan --output-on-failure -j "$JOBS" --timeout 600 \
      -R 'HangStorm|SlowStorm|SlowRetrain|UnitBudgetLeg|SavesDuringCancelledRetrain|ShardLevelSaveRaces'; then
    record "hang-storm-asan" "OK"
  else
    record "hang-storm-asan" "FAIL"
  fi
else
  record "hang-storm-asan" "SKIPPED (ASan build failed)"
fi

# --- 3. TSan (if the toolchain supports it). ---------------------------------
if [[ "$FAST" == 1 ]]; then
  record "tsan" "SKIPPED (--fast)"
else
  tsan_probe="$(mktemp -d)"
  echo 'int main(){return 0;}' > "$tsan_probe/p.cpp"
  if "${CXX:-c++}" -fsanitize=thread "$tsan_probe/p.cpp" -o "$tsan_probe/p" \
      > /dev/null 2>&1 && "$tsan_probe/p"; then
    export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"
    build_and_test "tsan" build-tsan \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DDBAUGUR_SANITIZE=thread \
      -DDBAUGUR_ENABLE_DCHECKS=ON
    # --- 3b. Concurrent-retrain stress: repeat the cancel-token, deadline,
    # checkpoint-vs-cancel, status-read, member-level fit-task and
    # thread-pool suites under the race detector. The plain ctest pass above
    # ran them once; the repeats shake out interleavings a single run can
    # miss (shard claim order, cancel-vs-publish, save-vs-cancel, a stats()
    # call reading a shard's snapshot pointer, error record and queue while
    # cycles publish, members of one ensemble fitting on different lanes,
    # concurrent and nested ParallelFor calls on one pool).
    if [[ -x build-tsan/tests/serve_workers_test &&
          -x build-tsan/tests/serve_shard_test &&
          -x build-tsan/tests/fit_tasks_test &&
          -x build-tsan/tests/common_test ]]; then
      note "tsan: serve_workers + status reads + fit tasks + thread pool stress (3 repeats)"
      if ./build-tsan/tests/serve_workers_test \
          --gtest_filter='CancelTokenTest.*:WorkerDeterminismTest.*:ServeWorkersFaultTest.*:ServeHealthAggregateTest.*' \
          --gtest_repeat=3 > /dev/null 2>&1 &&
         ./build-tsan/tests/serve_shard_test \
          --gtest_filter='ShardedServiceTest.HealthDoesNotWaitForAnInFlightCycle:ShardedServiceTest.ConcurrentProducersReadersSchedulerSmoke' \
          --gtest_repeat=3 > /dev/null 2>&1 &&
         ./build-tsan/tests/fit_tasks_test --gtest_filter='FitTasksTest.*' \
          --gtest_repeat=3 > /dev/null 2>&1 &&
         ./build-tsan/tests/common_test --gtest_filter='ThreadPoolTest.*' \
          --gtest_repeat=3 > /dev/null 2>&1; then
        record "tsan-workers-stress" "OK"
      else
        record "tsan-workers-stress" "FAIL"
      fi
    else
      record "tsan-workers-stress" "SKIPPED (TSan build failed)"
    fi
  else
    echo "WARNING: toolchain cannot link -fsanitize=thread; skipping TSan tree"
    record "tsan" "SKIPPED (unsupported toolchain)"
    record "tsan-workers-stress" "SKIPPED (unsupported toolchain)"
  fi
  rm -rf "$tsan_probe"
fi

# --- 4. clang-tidy over src/ (zero unsuppressed warnings required). ----------
if [[ "$FAST" == 1 ]]; then
  record "clang-tidy" "SKIPPED (--fast)"
elif command -v clang-tidy > /dev/null 2>&1; then
  note "clang-tidy over src/"
  # compile_commands.json comes from the Release tree (CMAKE_EXPORT_COMPILE_COMMANDS).
  mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
  if clang-tidy -p build-release --quiet "${tidy_sources[@]}"; then
    record "clang-tidy" "OK"
  else
    record "clang-tidy" "FAIL (warnings; fix or document a // NOLINT(check) with reason)"
  fi
else
  echo "WARNING: clang-tidy not found on PATH; skipping static analysis step"
  record "clang-tidy" "SKIPPED (not installed)"
fi

# --- 5. Thread-safety gate: clang++ build with -Werror=thread-safety. --------
# The DBAUGUR_GUARDED_BY / DBAUGUR_REQUIRES annotations (see
# src/common/thread_annotations.h) are only checked by Clang's capability
# analysis; GCC compiles them away. This stage proves the annotated tree is
# race-clean *at compile time* — and the tests/static_analysis negative-compile
# probe (run at configure) proves the gate itself rejects races.
if [[ "$FAST" == 1 ]]; then
  record "thread-safety" "SKIPPED (--fast)"
else
  CLANGXX="${DBAUGUR_CLANG:-}"
  if [[ -z "$CLANGXX" ]]; then
    for cand in clang++ clang++-18 clang++-17 clang++-16 clang++-15 clang++-14; do
      if command -v "$cand" > /dev/null 2>&1; then CLANGXX="$cand"; break; fi
    done
  fi
  if [[ -n "$CLANGXX" ]] && command -v "$CLANGXX" > /dev/null 2>&1; then
    build_and_test "thread-safety" build-threadsafety \
      -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_CXX_COMPILER="$CLANGXX"
  else
    echo "WARNING: no clang++ on PATH (set DBAUGUR_CLANG=/path/to/clang++);"
    echo "         skipping the -Werror=thread-safety gate — the GUARDED_BY"
    echo "         annotations are NOT being checked in this run."
    record "thread-safety" "SKIPPED (clang++ not installed)"
  fi
fi

# --- 6. Project-invariant lint (tools/lint.py). ------------------------------
# Bans bare assert(), nondeterministic sources in src/, atomic<shared_ptr>,
# raw std:: sync primitives outside common/mutex.h, undocumented NOLINTs,
# allocation in the src/nn hot path, raw x86 intrinsics outside
# common/simd.h, bare std::thread outside the sanctioned thread owner
# (common/thread_pool), and src/ headers no program includes. Self-tests run
# first so a broken linter cannot silently pass the tree.
if [[ "$FAST" == 1 ]]; then
  record "lint" "SKIPPED (--fast)"
elif command -v python3 > /dev/null 2>&1; then
  note "lint: tools/lint.py self-tests + tree scan"
  if python3 tests/lint_test.py 2> /dev/null; then
    record "lint-selftest" "OK"
  else
    record "lint-selftest" "FAIL"
  fi
  if python3 tools/lint.py src tests bench; then
    record "lint" "OK"
  else
    record "lint" "FAIL (fix or allowlist in tools/lint_allowlist.txt)"
  fi
else
  echo "WARNING: python3 not found on PATH; skipping project-invariant lint"
  record "lint" "SKIPPED (python3 not installed)"
fi

# --- Summary. ----------------------------------------------------------------
note "summary"
for r in "${RESULTS[@]}"; do echo "  $r"; done
exit "$FAILED"
