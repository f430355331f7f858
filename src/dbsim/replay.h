// Workload replay with a capacity model: executes a timestamped query log
// window by window, converting page costs into the throughput/latency
// series of Fig. 8. Index builds can be scheduled mid-replay; their build
// cost consumes window capacity, reproducing the paper's "Auto starts slow,
// then overtakes Static" dynamic.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "dbsim/engine.h"
#include "trace/extractor.h"

namespace dbaugur::dbsim {

/// Replay windowing. The server it models reads 4000 pages per second at
/// 0.25 ms per page.
struct ReplayOptions {
  int64_t window_seconds = 1800;
};

/// Per-window measurements.
struct WindowStats {
  int64_t start = 0;           ///< Window start timestamp.
  size_t queries = 0;
  double demand_pages = 0.0;   ///< Query pages + index-build pages.
  double avg_cost_pages = 0.0;
  double throughput_qps = 0.0;
  double avg_latency_ms = 0.0;
};

/// A scheduled physical-design change.
struct IndexAction {
  int64_t when = 0;
  std::vector<HypotheticalIndex> create;
  std::vector<HypotheticalIndex> drop;
};

/// Replays `log` against `db`, applying scheduled index actions at their
/// timestamps (build cost charged to that window) and aggregating per-window
/// stats. The log must be time-ordered.
StatusOr<std::vector<WindowStats>> ReplayWorkload(
    Database* db, const std::vector<trace::LogEntry>& log,
    std::vector<IndexAction> actions, const ReplayOptions& opts);

}  // namespace dbaugur::dbsim
