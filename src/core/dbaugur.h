// DBAugur end-to-end system (paper §III): Workload Processor (SQL2Template +
// Descender clustering) feeding the time-sensitive Ensemble Forecaster.
//
// Usage:
//   DBAugurSystem sys(options);
//   sys.IngestQueryLog(entries);          // raw timestamped SQL
//   sys.AddResourceTrace(disk_series);    // runtime statistics
//   sys.Train();                          // extract -> cluster -> fit top-K
//   sys.ForecastCluster(rank);            // next value per cluster
//   sys.ForecastTrace(trace_id);          // scaled by cluster proportion

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/descender.h"
#include "common/status.h"
#include "ensemble/time_sensitive_ensemble.h"
#include "models/forecaster.h"
#include "trace/extractor.h"
#include "ts/series.h"

namespace dbaugur {
class CancelToken;
class ThreadPool;
}  // namespace dbaugur

namespace dbaugur::core {

/// End-to-end configuration.
struct DBAugurOptions {
  trace::ExtractionOptions extraction;       ///< Trace binning interval.
  cluster::DescenderOptions clustering;      ///< DTW density clustering.
  size_t top_k = 5;                          ///< Clusters to forecast.
  models::ForecasterOptions forecaster;      ///< Shared model hyper-params.
  double delta = 0.9;                        ///< Ensemble attenuation factor.
  /// When true, a cluster whose ensemble fails to fit does not abort
  /// BuildTrainedState; the failure is recorded in ClusterForecast::fit_status
  /// and the cluster's model is left null for the caller to substitute a
  /// fallback. The serving layer uses this for per-cluster degraded mode.
  bool tolerate_fit_failures = false;
};

/// Identifies a trace fed into the processor.
struct TraceRef {
  enum class Kind { kQueryTemplate, kResource } kind = Kind::kQueryTemplate;
  size_t index = 0;   ///< Template id or resource slot.
  std::string name;
};

/// One trained cluster forecaster with its provenance.
struct ClusterForecast {
  int cluster_id = 0;
  double volume = 0.0;
  size_t member_count = 0;
  ts::Series representative;
  std::unique_ptr<ensemble::TimeSensitiveEnsemble> model;
  /// OK when `model` fitted cleanly. Non-OK (with `model` null) only when
  /// DBAugurOptions::tolerate_fit_failures let the pipeline continue past a
  /// failed per-cluster fit.
  Status fit_status = Status::OK();
};

/// Everything the clustering + forecasting stages produce for one workload
/// collection. DBAugurSystem::Train wraps this; the online serving layer
/// (serve::Retrainer) builds one per retrain cycle and publishes it as an
/// immutable snapshot.
struct TrainedState {
  std::unique_ptr<cluster::Descender> descender;
  std::vector<ClusterForecast> forecasts;   ///< Top-K, descending volume.
  std::vector<int> trace_cluster;           ///< Cluster id per trace.
  std::vector<double> trace_proportion;     ///< Share of cluster volume.
};

/// Runs the processor + forecaster pipeline on already-materialized traces:
/// clusters with Descender, selects the top-K clusters by volume, and fits
/// one DBAugur ensemble per cluster on the cluster's average trace. All
/// traces must share one length (InvalidArgument otherwise). The Descender
/// keeps the traces, so a caller done with them moves them in.
///
/// Descender's pairwise sweep and the ensemble fits run on one pool: the
/// caller-owned `fit_pool` when given, else one of clustering.threads lanes
/// built for the call (one lane runs inline, spawning nothing). The sharded
/// serving layer passes one long-lived pool that every concurrent shard
/// build shares, so no build pays thread spawn/join; each build's thread is
/// a lane of its own ParallelFor calls. The fits run as one job per
/// (member, cluster) pair, resumable one epoch at a time: min(lanes, jobs)
/// lanes share a ready set in which a lower member index (every WFGAN before
/// any TCN) and then more epochs left rank first, and after each epoch a
/// lane keeps its job unless a ready job outranks it. A job that gives up
/// its lane is suspended (models::Forecaster::SuspendFit), so fit memory
/// grows with lanes, not clusters. The sweep merges in index order and each
/// member is seeded, self-contained and runs its own epochs in order, so
/// results are bit-identical at any lane count and on any pool. A cluster's
/// fit_status is its first failing member's in member order, as
/// TimeSensitiveEnsemble::Fit returns.
///
/// `cancel` (may be null) is polled at epoch granularity — before
/// clustering, between clustering and the fits, and before every epoch of
/// every (member, cluster) job. When the token is observed latched the build
/// returns Status::Cancelled (code kCancelled) carrying the token's reason;
/// epochs already running finish, no later epoch starts, and no partial
/// state escapes. The sharded service arms the token
/// with each shard retrain's deadline to bound how long a hung or overrunning
/// retrain can occupy a lane (see serve/sharded_service.h).
StatusOr<TrainedState> BuildTrainedState(const DBAugurOptions& opts,
                                         std::vector<ts::Series> traces,
                                         ThreadPool* fit_pool = nullptr,
                                         const CancelToken* cancel = nullptr);

/// Predicts a representative trace's next value (H steps past its end): its
/// trailing `window` values feed `model`. FailedPrecondition when the trace
/// is shorter than the window.
StatusOr<double> PredictNextValue(const ensemble::TimeSensitiveEnsemble& model,
                                  const ts::Series& representative,
                                  size_t window);

/// PredictNextValue with the cluster's own ensemble. A cluster without a
/// model (its fit failed under tolerate_fit_failures) answers with its
/// fit_status.
StatusOr<double> NextClusterValue(const ClusterForecast& cf, size_t window);

class DBAugurSystem {
 public:
  /// Aborts (trace::TraceBinner's DBAUGUR_CHECK) when
  /// opts.extraction.interval_seconds <= 0.
  explicit DBAugurSystem(const DBAugurOptions& opts)
      : opts_(opts), extractor_(opts.extraction) {}

  /// Feeds raw query-log entries through SQL2Template.
  Status IngestQueryLog(const std::vector<trace::LogEntry>& entries);
  /// Adds an already-binned resource-utilization trace; it must match the
  /// query traces' length once extraction runs (Train validates).
  void AddResourceTrace(ts::Series series);

  /// Runs the full processor + forecaster pipeline: materializes template
  /// traces, merges with resource traces, clusters with Descender, selects
  /// the top-K clusters by volume, and fits one DBAugur ensemble per cluster
  /// on the cluster's average trace.
  Status Train();

  /// Number of traces the processor produced (templates + resources).
  size_t trace_count() const { return trace_refs_.size(); }
  const TraceRef& trace_ref(size_t i) const { return trace_refs_[i]; }
  const cluster::Descender* clustering() const {
    return state_.descender.get();
  }
  size_t forecast_count() const { return state_.forecasts.size(); }
  const ClusterForecast& forecast(size_t rank) const {
    return state_.forecasts[rank];
  }

  /// Neighbor-search pruning telemetry from the clustering stage (LB_Kim /
  /// LB_Keogh rejections, full DTW count). Zeros before Train.
  dtw::PruningStats clustering_pruning_stats() const;

  /// Predicts the representative trace's next value (H steps past its end)
  /// for the rank-th largest cluster.
  StatusOr<double> ForecastCluster(size_t rank) const;

  /// Predicts trace i's next value: the cluster forecast scaled by the
  /// trace's proportion of cluster volume (paper §IV-C). NotFound if the
  /// trace's cluster is outside the top-K.
  StatusOr<double> ForecastTrace(size_t trace_index) const;

 private:
  DBAugurOptions opts_;
  trace::TraceExtractor extractor_;
  std::vector<ts::Series> resource_traces_;
  std::vector<TraceRef> trace_refs_;
  TrainedState state_;  // The last successful Train; no descender before.
};

}  // namespace dbaugur::core
