// Immutable published state of the forecast service.
//
// A ServiceSnapshot is built once by the retrain thread, then published by
// atomically swapping a shared_ptr — readers load the pointer and work with
// a fully immutable object, so forecast reads never take a lock and never
// block on an in-flight retrain. The snapshot carries *precomputed* next-value
// forecasts per cluster: the ensemble Predict path uses mutable layer
// workspaces and prediction caches, so running it from concurrent readers
// would race. Readers instead do pure arithmetic on the frozen numbers
// (cluster forecast × member count × trace proportion), which is race-free by
// construction.
//
// Serialize/Deserialize turn a snapshot into one versioned binary section of
// a shard's checkpoint file; restore rebuilds each cluster's ensemble from its
// lossless float64 state and verifies the stored forecast reproduces
// bit-identically, so a restarted service provably resumes with the same
// forecasts it was serving before.
//
// Thread ownership: a ServiceSnapshot is deliberately lock-free — immutable
// after construction, only ever shared as shared_ptr<const ServiceSnapshot>.
// The one mutable hand-off (the shard's snapshot pointer) lives in
// ServiceShard, where it is DBAUGUR_GUARDED_BY(snapshot_mu_) and
// compile-checked under Clang's -Werror=thread-safety.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "core/dbaugur.h"
#include "ensemble/time_sensitive_ensemble.h"
#include "ts/series.h"

namespace dbaugur::serve {

/// One forecasted cluster in a snapshot: provenance plus the frozen forecast.
struct SnapshotCluster {
  /// Which preset `model` is; persisted so deserialization reconstructs the
  /// right architecture before loading weights.
  enum class ModelKind : uint8_t {
    kEnsemble = 0,        ///< Full DBAugur ensemble (WFGAN + TCN + MLP).
    kKernelBaseline = 1,  ///< Degraded-mode kernel-regression fallback.
  };

  int cluster_id = 0;
  double volume = 0.0;
  size_t member_count = 0;
  ts::Series representative;
  /// Trained ensemble, kept for checkpoints and as the degraded-mode
  /// fallback a later cycle restores when its own fit fails. Readers must
  /// not call into it (mutable caches); they use next_value below.
  std::unique_ptr<ensemble::TimeSensitiveEnsemble> model;
  /// Precomputed forecast of the representative's next value.
  double next_value = 0.0;
  ModelKind model_kind = ModelKind::kEnsemble;
  /// True when this cluster's fresh fit failed or diverged and `model` is a
  /// fallback (last-good state or the kernel baseline).
  bool degraded = false;
  /// Human-readable cause, empty unless degraded.
  std::string degraded_reason;
};

/// Immutable published state: everything a forecast read needs. Instances are
/// only ever handed out as shared_ptr<const ServiceSnapshot>.
class ServiceSnapshot {
 public:
  /// Monotonic publish counter; 0 is the empty pre-training snapshot.
  uint64_t generation = 0;
  /// Name of each trace in the last trained workload collection.
  std::vector<std::string> trace_names;
  /// Cluster id per trace (parallel to trace_names).
  std::vector<int> trace_cluster;
  /// Trace's share of its cluster's volume (parallel to trace_names).
  std::vector<double> trace_proportion;
  /// Top-K clusters, descending volume.
  std::vector<SnapshotCluster> clusters;

  bool trained() const { return !clusters.empty(); }
  size_t cluster_count() const { return clusters.size(); }
  size_t degraded_count() const {
    size_t n = 0;
    for (const SnapshotCluster& c : clusters) n += c.degraded ? 1 : 0;
    return n;
  }

  /// Precomputed next value for the rank-th largest cluster.
  /// FailedPrecondition before training, OutOfRange for bad rank.
  StatusOr<double> ForecastCluster(size_t rank) const;

  /// Next value for trace i: cluster forecast scaled to the cluster total and
  /// then by the trace's volume proportion (paper §IV-C). NotFound when the
  /// trace's cluster is outside the top-K.
  StatusOr<double> ForecastTrace(size_t trace_index) const;
};

/// Degraded-mode policy for MakeSnapshot.
struct SnapshotFallback {
  /// Pipeline options, needed to rebuild fallback models. Required; must
  /// outlive the MakeSnapshot call.
  const core::DBAugurOptions* opts = nullptr;
  /// Previously published snapshot whose per-cluster models serve as
  /// last-good fallbacks (matched by member templates). May be null (first
  /// train).
  const ServiceSnapshot* last_good = nullptr;
  /// A forecast is "sane" when it is finite and within this multiple of the
  /// representative's observed span beyond its min/max. <= 0 disables the
  /// range check (finiteness is always required).
  double divergence_multiple = 10.0;
};

/// Builds a snapshot from a trained pipeline state, precomputing each
/// cluster's next value with core::PredictNextValue. Consumes `state`.
/// Aborts (DBAUGUR_CHECK) when `fallback.opts` is null.
///
/// Each cluster's forecast is validated: a cluster whose fit failed
/// (fit_status) or whose forecast is non-finite / outside
/// divergence_multiple × the representative's observed range falls back to
/// its last-good model state or, failing that, to a freshly fit
/// kernel-regression baseline — and is marked degraded with a reason. Its
/// last-good model is the one of the `last_good` cluster sharing the most
/// member templates (trace names), never one picked by cluster_id: that is
/// Descender::Relabel's ordinal, which shifts whenever an earlier cluster
/// forms, merges or dissolves. Healthy clusters are unaffected.
StatusOr<std::shared_ptr<const ServiceSnapshot>> MakeSnapshot(
    core::TrainedState state, const std::vector<std::string>& trace_names,
    size_t window, uint64_t generation, const SnapshotFallback& fallback);

/// Appends the snapshot's persistent fields (everything except the Descender,
/// which the retrainer rebuilds from the binner) to *w.
Status SerializeSnapshot(const ServiceSnapshot& snap, BufWriter* w);

/// Restores a SerializeSnapshot section. `opts` must match the saving
/// service's pipeline options (ensembles are reconstructed from them before
/// loading weights). Rejects corrupt blobs and any cluster whose restored
/// ensemble does not reproduce the stored forecast bit-for-bit.
StatusOr<std::shared_ptr<const ServiceSnapshot>> DeserializeSnapshot(
    const core::DBAugurOptions& opts, BufReader* r);

}  // namespace dbaugur::serve
