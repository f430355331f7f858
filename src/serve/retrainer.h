// Background retraining for the forecast service.
//
// The Retrainer owns everything the training side of the service touches:
// the TraceBinner accumulating drained events, the pipeline options, and a
// deterministic seed stream. Each successful Rebuild draws one per-cycle seed
// from the stream, winsorizes the binned traces (median/MAD outlier clamp),
// runs the full offline pipeline (Descender clustering on the thread pool +
// the ensemble member fits, stepped one epoch at a time) via
// core::BuildTrainedState, and returns a fresh immutable snapshot for the
// service to publish — substituting a last-good or kernel-baseline fallback
// for any cluster whose fit failed or diverged (see serve/snapshot.h).
// Restart determinism: the cycle counter is persisted, and InstallState
// fast-forwards the seed stream past the consumed draws, so a restored
// service's *next* retrain uses exactly the seed the original service would
// have used.
//
// Thread ownership: a Retrainer has no locks of its own — it is single-
// threaded state owned by the retrain loop. That contract is enforced at the
// owning ServiceShard, where the `retrainer_` member is
// DBAUGUR_GUARDED_BY(retrain_mu_): under Clang's -Werror=thread-safety any
// touch of the retrainer outside the retrain/Save/Load critical section is a
// compile error.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/dbaugur.h"
#include "serve/ingestor.h"
#include "serve/snapshot.h"

namespace dbaugur {
class CancelToken;
class ThreadPool;
}  // namespace dbaugur

namespace dbaugur::serve {

/// Robustness knobs for the retrain path.
struct RetrainerOptions {
  /// Forecasting interval I (> 0).
  int64_t bin_interval_seconds = 600;
  /// Complete bins required before training is attempted; 0 selects
  /// window + horizon + 1 (the smallest workload the sliding-window dataset
  /// builder accepts with headroom for one target).
  size_t min_bins = 0;
  /// Base seed for the per-cycle seed stream.
  uint64_t seed = 42;
  /// Winsorization threshold: values beyond median ± k·1.4826·MAD are clamped
  /// to the boundary before training. <= 0 disables. Skipped per trace when
  /// MAD is 0 (constant or near-constant data has no robust scale).
  double winsorize_k = 8.0;
  /// Forecast sanity bound passed to MakeSnapshot (multiples of the
  /// representative's observed span). <= 0 disables the range check.
  double divergence_multiple = 10.0;
};

class Retrainer {
 public:
  Retrainer(const core::DBAugurOptions& pipeline, const RetrainerOptions& opts);

  /// Folds drained ingest events into the binner.
  void Fold(const std::vector<TraceEvent>& events);

  /// Runs one full retrain over the binned traces and returns the snapshot to
  /// publish with the given generation. Returns a null pointer (with OK
  /// status) when fewer than min_bins bins have accumulated — not an error,
  /// the service just keeps serving the previous snapshot. The per-cycle seed
  /// is drawn only when training actually runs. `last_good` (may be null) is
  /// the currently published snapshot; a diverged cluster falls back to its
  /// last-good model state, or the kernel baseline on first train.
  /// `fit_pool` (may be null) is a caller-owned thread pool for the
  /// Descender sweep and the ensemble member fits — the sharded service
  /// passes the one fit pool every concurrent shard retrain shares; results
  /// are bit-identical with or without it.
  ///
  /// `cancel` (may be null) is a cooperative cancellation token polled at
  /// epoch granularity (see core::BuildTrainedState) and inside the
  /// `serve.retrain.hang` / `serve.retrain.slow` fault sleeps. A cancelled
  /// cycle returns Status::Cancelled with the token's reason; the binner keeps
  /// everything folded so far and the cycle counter does not advance. A
  /// cancellation observed before the per-cycle seed draw (fault sleeps,
  /// trace materialization, winsorize) leaves the seed stream exactly as if
  /// the cycle had never been attempted; one observed inside the build
  /// consumes that cycle's draw, the same as any post-draw failure.
  StatusOr<std::shared_ptr<const ServiceSnapshot>> Rebuild(
      uint64_t generation, const ServiceSnapshot* last_good,
      ThreadPool* fit_pool = nullptr, const CancelToken* cancel = nullptr);

  /// Completed training cycles (drives the deterministic seed stream).
  uint64_t cycles() const { return cycles_; }
  const TraceBinner& binner() const { return binner_; }

  /// Total trace values clamped by the winsorizer across all cycles.
  uint64_t values_winsorized() const { return values_winsorized_; }

  /// Commits an already-validated state: swaps in `binner` and fast-forwards
  /// the seed stream past `cycles` draws, so the next cycle draws the seed
  /// the saving service would have drawn. The sharded restore path parses
  /// and validates every shard's section first (all-or-nothing), then
  /// installs each; shard-count migration rebuilds the binner by re-hashing
  /// and installs it here. Aborts (DBAUGUR_CHECK) if the binner's interval
  /// does not match this retrainer's — callers construct it from the same
  /// options.
  void InstallState(TraceBinner binner, uint64_t cycles);

 private:
  core::DBAugurOptions pipeline_;
  RetrainerOptions opts_;
  TraceBinner binner_;
  size_t min_bins_;
  Rng seed_rng_;
  uint64_t cycles_ = 0;
  uint64_t values_winsorized_ = 0;
};

}  // namespace dbaugur::serve
