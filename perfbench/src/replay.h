// Traced run: replays one shard's rebuild outside the service, on that
// shard's own inputs, so the stages inside RetrainCycle get spans.
//
// The service's RetrainCycle has no call site for its inner stages, so after
// a measured cycle the benchmark rebuilds the shard's Retrainer from public
// state (BinContents folded with FoldBin, the seed position installed with
// InstallState) and
//   1. times Drain + Fold of the cycle's events into the pre-cycle history;
//   2. runs Retrainer::Rebuild whole, which must reproduce the published
//      snapshot bit for bit (proof that the replay did the service's work);
//   3. runs the stages one by one through their public calls:
//      TraceBinner::Traces, Descender::AddTraces, TopKClusters +
//      ClusterRepresentative, MakeDBAugur + Fit per cluster,
//      NextClusterValue and MakeSnapshot.
// Winsorization has no public entry point; the benchmark clamps the traces
// itself, untimed, and the part of Rebuild the stage spans do not cover is
// reported as a remainder.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "dtw/dtw.h"
#include "report.h"
#include "serve/sharded_service.h"
#include "ts/series.h"

namespace perfbench {

using BinMap = std::map<uint32_t, std::map<int64_t, double>>;

struct ReplayInput {
  const dbaugur::serve::ServeOptions* options = nullptr;
  BinMap before;   ///< Shard history before the cycle drained its queue.
  BinMap after;    ///< Shard history after the cycle.
  std::vector<dbaugur::serve::TraceEvent> events;  ///< Offered this cycle.
  uint64_t cycles_before = 0;  ///< Completed retrains before this cycle.
  uint64_t generation = 0;     ///< Generation the cycle published.
  std::shared_ptr<const dbaugur::serve::ServiceSnapshot> last_good;
  std::shared_ptr<const dbaugur::serve::ServiceSnapshot> published;
};

/// What a replay found besides its spans (timings come from the spans).
struct ReplayResult {
  bool reproduced = false;    ///< Rebuild replay == published, bit for bit.
  std::string mismatch;       ///< First difference when not reproduced.
  bool fold_matches = false;  ///< Drain + Fold rebuilt the service's history.
  bool stages_reproduced = false;  ///< Stage replay == published (informational).
  size_t history_bins = 0;
  size_t traces = 0;
  int64_t pairs = 0;
  dbaugur::dtw::PruningStats pruning;
  size_t clusters = 0;
  double topk_volume_share = 0;
  /// Materialized traces and the rank-0 representative, for the per-model
  /// fits and DTW kernel timings that follow the last cycle.
  std::vector<dbaugur::ts::Series> traces_values;
  dbaugur::ts::Series rank0;
};

/// Replays one shard's cycle; spans hang under `parent`.
ReplayResult ReplayShard(const ReplayInput& in, SpanRecorder* spans,
                         int64_t parent, int64_t cycle, int64_t shard,
                         dbaugur::ThreadPool* fit_pool);

/// Compares two snapshots' served numbers bit for bit: generation, trace
/// names, cluster assignment and proportions, and every cluster's forecast.
/// Returns an empty string when equal, else the first difference.
std::string CompareSnapshots(const dbaugur::serve::ServiceSnapshot& a,
                             const dbaugur::serve::ServiceSnapshot& b);

}  // namespace perfbench
