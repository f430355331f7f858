#include "serve/retrainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "common/cancellation.h"
#include "common/contracts.h"
#include "common/fault_injection.h"
#include "common/logging.h"

namespace dbaugur::serve {

namespace {

// Fault-sleep quantum: small enough that a passed deadline is observed within
// a few milliseconds, large enough not to spin.
constexpr auto kFaultSliceMs = std::chrono::milliseconds(2);

// serve.retrain.slow holds the cycle for this long (unless cancelled first) —
// long relative to the sub-100ms deadlines tests arm, short enough that an
// uncancelled slow cycle doesn't stall a suite.
constexpr int kSlowFaultSlices = 100;  // ~200ms

}  // namespace

Retrainer::Retrainer(const core::DBAugurOptions& pipeline,
                     const RetrainerOptions& opts)
    : pipeline_(pipeline),
      opts_(opts),
      binner_(opts.bin_interval_seconds),
      min_bins_(opts.min_bins != 0
                    ? opts.min_bins
                    : pipeline.forecaster.window + pipeline.forecaster.horizon +
                          1),
      seed_rng_(opts.seed) {}

void Retrainer::Fold(const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) binner_.Fold(e);
}

StatusOr<std::shared_ptr<const ServiceSnapshot>> Retrainer::Rebuild(
    uint64_t generation, const ServiceSnapshot* last_good,
    ThreadPool* fit_pool, const CancelToken* cancel) {
  if (binner_.bin_count() < min_bins_) {
    return std::shared_ptr<const ServiceSnapshot>();
  }
  if (cancel != nullptr && cancel->cancelled()) {
    return CancelledStatus(*cancel, "serve: retrain");
  }
  if (DBAUGUR_FAULT_POINT("serve.retrain.build")) {
    return Status::Internal("serve: injected retrain failure");
  }
  // Both stall faults sit before the per-cycle seed draw, so a cancelled hung
  // or slow cycle leaves the seed stream untouched — restart determinism is
  // unaffected no matter how many cycles a storm kills.
  if (DBAUGUR_FAULT_POINT("serve.retrain.hang")) {
    if (cancel == nullptr) {
      // Nothing can ever cancel this cycle (no deadline, no token); hanging
      // for real would deadlock the caller, so fail fast instead.
      return Status::Internal(
          "serve: injected retrain hang with no cancel token");
    }
    // Simulated hang: never finishes on its own. Only the token's deadline
    // (or an explicit Cancel) releases the thread — exactly the failure mode
    // the deadline exists for.
    while (!cancel->cancelled()) std::this_thread::sleep_for(kFaultSliceMs);
    return CancelledStatus(*cancel, "serve: retrain (hung)");
  }
  if (DBAUGUR_FAULT_POINT("serve.retrain.slow")) {
    // Simulated overrun: the cycle eventually completes unless a deadline
    // shorter than the stall cancels it first.
    for (int i = 0; i < kSlowFaultSlices; ++i) {
      if (cancel != nullptr && cancel->cancelled()) {
        return CancelledStatus(*cancel, "serve: retrain (slow)");
      }
      std::this_thread::sleep_for(kFaultSliceMs);
    }
  }
  auto traces = binner_.Traces();
  if (!traces.ok()) return traces.status();
  std::vector<std::string> names;
  names.reserve(traces->size());
  for (const ts::Series& t : *traces) names.push_back(t.name());

  // Winsorize each trace: clamp values beyond median ± k·1.4826·MAD (the
  // Gaussian-consistent robust sigma) so one corrupt count the quarantine
  // could not prove wrong cannot drag a whole cluster's fit. The binner keeps
  // the raw values — the clamp is per-cycle, so late events can still refine
  // a bin and be re-judged next cycle.
  if (opts_.winsorize_k > 0.0) {
    // Both order statistics select in one scratch buffer, by the same
    // nth_element on the same sequence as math_utils' Median, so every
    // median and MAD keeps its bits without a copy per call.
    std::vector<double> scratch;
    auto lower_median = [&scratch] {
      const auto mid = scratch.begin() +
                       static_cast<ptrdiff_t>((scratch.size() - 1) / 2);
      std::nth_element(scratch.begin(), mid, scratch.end());
      return *mid;
    };
    for (ts::Series& t : *traces) {
      std::vector<double>& vals = t.mutable_values();
      if (vals.empty()) continue;
      scratch.assign(vals.begin(), vals.end());
      const double med = lower_median();
      for (size_t i = 0; i < vals.size(); ++i) {
        scratch[i] = std::abs(vals[i] - med);
      }
      const double mad = lower_median();
      if (!(mad > 0.0)) continue;
      double radius = opts_.winsorize_k * 1.4826 * mad;
      double lo = med - radius, hi = med + radius;
      uint64_t clamped = 0;
      for (double& v : vals) {
        if (v < lo) {
          v = lo;
          ++clamped;
        } else if (v > hi) {
          v = hi;
          ++clamped;
        }
      }
      values_winsorized_ += clamped;
    }
  }

  // Last pre-draw cancellation checkpoint: past this line a cancelled cycle
  // has consumed its seed draw (like any post-draw failure).
  if (cancel != nullptr && cancel->cancelled()) {
    return CancelledStatus(*cancel, "serve: retrain");
  }

  // One seed per completed cycle, drawn from the retrainer's own stream so
  // cycle k trains identically on every run (and on every restart, via the
  // fast-forward in InstallState).
  core::DBAugurOptions opts = pipeline_;
  opts.forecaster.seed = seed_rng_.engine()();
  opts.tolerate_fit_failures = true;

  auto state =
      core::BuildTrainedState(opts, std::move(*traces), fit_pool, cancel);
  if (!state.ok()) return state.status();
  SnapshotFallback fb;
  fb.opts = &opts;
  fb.last_good = (last_good != nullptr && last_good->trained()) ? last_good
                                                                : nullptr;
  fb.divergence_multiple = opts_.divergence_multiple;
  auto snap = MakeSnapshot(std::move(state).value(), names,
                           opts.forecaster.window, generation, fb);
  if (!snap.ok()) return snap.status();
  ++cycles_;
  DBAUGUR_INFO("serve: retrain cycle " << cycles_ << " published generation "
                                       << generation << " ("
                                       << (*snap)->cluster_count()
                                       << " clusters, "
                                       << (*snap)->degraded_count()
                                       << " degraded, " << names.size()
                                       << " traces)");
  return snap;
}

void Retrainer::InstallState(TraceBinner binner, uint64_t cycles) {
  DBAUGUR_CHECK(binner.interval_seconds() == binner_.interval_seconds(),
                "Retrainer: InstallState interval mismatch");
  // Replay the seed stream so the next cycle draws the same seed the saving
  // service would have drawn.
  Rng rng(opts_.seed);
  for (uint64_t i = 0; i < cycles; ++i) rng.engine()();
  binner_ = std::move(binner);
  seed_rng_ = std::move(rng);
  cycles_ = cycles;
}

}  // namespace dbaugur::serve
