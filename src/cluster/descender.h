// Descender — Density basEd Spatial ClustEriNg with Dynamic timE waRping
// (paper §IV-C): DBSCAN over workload traces with DTW as the similarity
// measure, supporting online insertion of new traces, top-K cluster
// selection, per-cluster representative traces, and per-trace proportions.
//
// The implementation maintains the full ρ-neighborhood adjacency, so after
// every insertion the labeling is exactly what batch DBSCAN would produce on
// the same data (the paper's "merge or split the clusters based on the
// current clustering density"). Non-core traces outside every cluster are
// materialized as singleton clusters, matching the paper's online rule ("we
// will create a new cluster with that trace as its sole member").
//
// Neighborhoods are searched exactly, through the LB_Kim -> LB_Keogh -> DTW
// cascade. The paper's Ball-Tree index is cluster::BallTree; DTW is not a
// metric, so its pruning is heuristic, and Descender does not use it.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "dtw/dtw.h"
#include "ts/series.h"

namespace dbaugur::cluster {

/// Descender configuration.
struct DescenderOptions {
  double radius = 1.0;          ///< ρ — neighborhood radius (DTW distance).
  size_t min_size = 3;          ///< MinSize — neighbors (incl. self) to be core.
  dtw::DtwOptions dtw;          ///< DTW band window.
  /// Compute distances on z-normalized copies of the traces. Query-count and
  /// utilization-ratio traces live on wildly different scales; normalizing
  /// lets one radius ρ group by *shape*, which is what the paper's pattern
  /// clustering is after. Volumes/representatives still use raw values.
  bool znormalize = true;
  /// Worker lanes for the batch AddTraces pairwise sweep when the caller
  /// passes no pool; core::BuildTrainedState sizes the one pool it builds
  /// for the sweep and the fits from it too, and the sharded service sizes
  /// the one fit pool all of its shard retrains share from it. Results are
  /// deterministic for any value; 1 runs fully inline (no threads spawned).
  size_t threads = DefaultThreadCount();
};

/// Summary of one cluster for top-K selection.
struct ClusterInfo {
  int id = 0;
  std::vector<size_t> members;  ///< Trace indices.
  double volume = 0.0;          ///< Total workload (sum of member values).
  bool singleton_outlier = false;
};

class Descender {
 public:
  /// Aborts (DBAUGUR_CHECK) when opts.radius < 0 or opts.threads == 0.
  explicit Descender(const DescenderOptions& opts);

  /// Inserts one trace and incrementally updates the clustering. All traces
  /// must share one length. Returns the trace's index.
  StatusOr<size_t> AddTrace(ts::Series trace);

  /// Batch fast path: inserts every trace, then relabels once. Produces the
  /// same labels/core flags/adjacency as an equivalent AddTrace loop but
  /// much cheaper — every new row is written to the arena up front, an
  /// endpoint grid hands each new trace only the earlier traces that can
  /// pass LB_Kim (the pairs it skips count as LB_Kim rejections), those
  /// take the rest of the cascade — the symmetric two-sided LB_Keogh bound,
  /// decided on its sums without a square root, then DTW — reading a
  /// cell-ordered copy of the rows (d(i,j) decided once, adjacency filled
  /// both ways), rows are distributed over `pool` (or, when null, a pool of
  /// opts.threads lanes built for the call) with a deterministic merge.
  /// Validation is atomic: on error no trace is added.
  Status AddTraces(std::vector<ts::Series> traces, ThreadPool* pool = nullptr);

  size_t trace_count() const { return traces_.size(); }
  const ts::Series& trace(size_t i) const { return traces_[i]; }

  /// Cluster id of trace i (every trace has one; outliers are singletons).
  int label(size_t i) const { return labels_[i]; }
  /// True iff trace i is a core point.
  bool is_core(size_t i) const { return core_[i]; }
  /// Trace i's ρ-neighbors (itself excluded), in ascending index order.
  const std::vector<size_t>& neighbors(size_t i) const { return adjacency_[i]; }
  /// Number of clusters including singleton outliers.
  size_t cluster_count() const { return cluster_sizes_.size(); }
  /// Number of non-singleton (density) clusters.
  size_t density_cluster_count() const;

  /// Clusters ordered by descending volume, truncated to k.
  std::vector<ClusterInfo> TopKClusters(size_t k) const;

  /// Average trace of a cluster's members (the forecasting model's training
  /// data for that cluster).
  StatusOr<ts::Series> ClusterRepresentative(int cluster_id) const;

  /// Trace i's share of its cluster's volume — used to scale a cluster-level
  /// forecast back to the individual trace (paper: "we also track each trace
  /// and its proportion in the corresponding cluster"). O(1): Relabel caches
  /// each cluster's volume and size.
  StatusOr<double> TraceProportion(size_t i) const;

  /// Per-tier pruning telemetry accumulated over every insertion: LB_Kim /
  /// LB_Keogh rejections and full DTW computations.
  const dtw::PruningStats& pruning_stats() const { return stats_; }

 private:
  /// Recomputes core flags and labels from the adjacency lists (exact DBSCAN
  /// semantics, then singletons for leftover noise), and each cluster's
  /// volume and size.
  void Relabel();

  /// Appends `trace`'s distance values (z-normalized when enabled) and
  /// their Keogh envelope to the arena as the next row.
  void AppendRow(const ts::Series& trace);
  /// Row i of the arena: distance values and their envelope.
  std::span<const double> DistanceRow(size_t i) const {
    return {arena_.data() + 3 * row_len_ * i, row_len_};
  }
  dtw::EnvelopeView EnvelopeRow(size_t i) const {
    const double* lower = arena_.data() + 3 * row_len_ * i + row_len_;
    return {{lower, row_len_}, {lower + row_len_, row_len_}};
  }

  DescenderOptions opts_;
  std::vector<ts::Series> traces_;
  // Every trace's distance row in index order, 3 * row_len_ doubles each:
  // the distance values, then the lower and the upper Keogh envelope.
  std::vector<double> arena_;
  size_t row_len_ = 0;
  std::vector<std::vector<size_t>> adjacency_;  // ρ-neighbors, excl. self
  std::vector<bool> core_;
  std::vector<int> labels_;
  std::vector<double> volumes_;
  // Per cluster id: summed member volume (in ascending trace order) and size.
  std::vector<double> cluster_volumes_;
  std::vector<size_t> cluster_sizes_;
  dtw::PruningStats stats_;
};

}  // namespace dbaugur::cluster
