#include "dbsim/replay.h"

#include <algorithm>
#include <cmath>

namespace dbaugur::dbsim {

namespace {
constexpr double kPagesPerSecond = 4000.0;  // Server I/O capacity.
constexpr double kPageTimeMs = 0.25;        // Service time per page.
}  // namespace

StatusOr<std::vector<WindowStats>> ReplayWorkload(
    Database* db, const std::vector<trace::LogEntry>& log,
    std::vector<IndexAction> actions, const ReplayOptions& opts) {
  if (db == nullptr) return Status::InvalidArgument("replay: null database");
  if (log.empty()) return Status::InvalidArgument("replay: empty log");
  if (opts.window_seconds <= 0) {
    return Status::InvalidArgument("replay: bad capacity options");
  }
  std::sort(actions.begin(), actions.end(),
            [](const IndexAction& a, const IndexAction& b) {
              return a.when < b.when;
            });
  size_t next_action = 0;

  int64_t first_window = log.front().timestamp / opts.window_seconds;
  int64_t last_window = log.back().timestamp / opts.window_seconds;
  std::vector<WindowStats> out;
  out.reserve(static_cast<size_t>(last_window - first_window + 1));

  size_t li = 0;
  for (int64_t w = first_window; w <= last_window; ++w) {
    WindowStats stats;
    stats.start = w * opts.window_seconds;
    int64_t window_end = stats.start + opts.window_seconds;

    // Apply design changes that fall in this window; charge build cost here.
    while (next_action < actions.size() && actions[next_action].when < window_end) {
      const IndexAction& act = actions[next_action];
      for (const auto& d : act.drop) {
        Status st = db->DropIndex(d.table, d.column);
        if (!st.ok() && st.code() != StatusCode::kNotFound) return st;
      }
      for (const auto& c : act.create) {
        auto t = db->GetTable(c.table);
        if (!t.ok()) return t.status();
        if (!(*t)->HasIndex(c.column)) {
          auto build = db->IndexBuildCost(c.table);
          if (!build.ok()) return build.status();
          stats.demand_pages += *build;
          DBAUGUR_RETURN_IF_ERROR(db->CreateIndex(c.table, c.column));
        }
      }
      ++next_action;
    }

    // Execute this window's queries.
    double query_pages = 0.0;
    while (li < log.size() && log[li].timestamp < window_end) {
      auto res = db->Execute(log[li].sql);
      if (!res.ok()) return res.status();
      query_pages += res->cost_pages;
      ++stats.queries;
      ++li;
    }
    stats.demand_pages += query_pages;
    double capacity =
        kPagesPerSecond * static_cast<double>(opts.window_seconds);
    double utilization = stats.demand_pages / capacity;
    stats.avg_cost_pages =
        stats.queries > 0 ? query_pages / static_cast<double>(stats.queries) : 0.0;
    double arrival_qps = static_cast<double>(stats.queries) /
                         static_cast<double>(opts.window_seconds);
    if (stats.queries > 0) {
      // Sustainable service rate under the capacity model. An open-loop log
      // replay would otherwise cap every strategy at the identical arrival
      // rate; the paper's closed-loop throughput corresponds to what the
      // server could serve, which is what physical design changes move.
      stats.throughput_qps = stats.avg_cost_pages > 0.0
                                 ? kPagesPerSecond / stats.avg_cost_pages
                                 : arrival_qps;
      // M/M/1-style queueing inflation, capped at 95% utilization.
      double u = std::min(utilization, 0.95);
      stats.avg_latency_ms = stats.avg_cost_pages * kPageTimeMs / (1.0 - u);
    }
    out.push_back(stats);
  }
  return out;
}

}  // namespace dbaugur::dbsim
