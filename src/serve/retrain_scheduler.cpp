#include "serve/retrain_scheduler.h"

#include <algorithm>

#include "common/contracts.h"

namespace dbaugur::serve {

uint64_t BackoffCycles(uint64_t consecutive_failures) {
  if (consecutive_failures == 0) return 0;
  uint64_t exp = std::min<uint64_t>(consecutive_failures - 1, 6);
  return uint64_t{1} << exp;
}

std::vector<size_t> ScheduleRetrains(const std::vector<ShardSignal>& signals,
                                     const RetrainSchedulerOptions& opts) {
  DBAUGUR_CHECK(opts.starvation_cycles >= 1,
                "ScheduleRetrains: starvation_cycles must be >= 1");
  struct Candidate {
    size_t shard_id;
    uint64_t waited;
    bool starved;
    unsigned __int128 priority;
  };
  std::vector<Candidate> eligible;
  eligible.reserve(signals.size());
  for (const ShardSignal& s : signals) {
    if (s.pending_events == 0) continue;  // work-conserving
    if (s.cycles_waited < BackoffCycles(s.consecutive_failures)) continue;
    Candidate c;
    c.shard_id = s.shard_id;
    c.waited = s.cycles_waited;
    c.starved = s.cycles_waited >= opts.starvation_cycles;
    c.priority = static_cast<unsigned __int128>(s.pending_events) *
                 (static_cast<unsigned __int128>(s.cycles_waited) + 1);
    eligible.push_back(c);
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.starved != b.starved) return a.starved;
              if (a.starved) {  // both starved: longest wait first
                if (a.waited != b.waited) return a.waited > b.waited;
                return a.shard_id < b.shard_id;
              }
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.shard_id < b.shard_id;
            });
  size_t take = opts.budget == 0 ? eligible.size()
                                 : std::min(opts.budget, eligible.size());
  std::vector<size_t> order;
  order.reserve(take);
  for (size_t i = 0; i < take; ++i) order.push_back(eligible[i].shard_id);
  return order;
}

double OverloadIntervalScale(uint64_t level) {
  DBAUGUR_DCHECK(level < 64, "overload level ", level, " overflows 2^level");
  return static_cast<double>(uint64_t{1} << level);
}

OverloadController::OverloadController(const OverloadOptions& opts)
    : opts_(opts) {
  DBAUGUR_CHECK(opts_.max_level < 64,
                "OverloadOptions max_level must be < 64 (the scheduler "
                "interval scales by 2^level)");
}

uint64_t OverloadController::Observe(uint64_t backlog) {
  if (opts_.grow_cycles == 0) return level_;  // adaptation disabled
  bool growing = have_last_ && backlog > last_backlog_;
  last_backlog_ = backlog;
  have_last_ = true;
  if (growing) {
    drain_streak_ = 0;
    if (++growth_streak_ >= opts_.grow_cycles) {
      growth_streak_ = 0;
      if (level_ < opts_.max_level) ++level_;
    }
  } else {
    growth_streak_ = 0;
    if (level_ > 0 && ++drain_streak_ >= opts_.drain_cycles) {
      drain_streak_ = 0;
      --level_;
    }
  }
  return level_;
}

size_t OverloadController::DegradedBudget(size_t base_budget,
                                          size_t shard_count) const {
  size_t base = base_budget == 0 ? shard_count : base_budget;
  if (base == 0) return 0;
  // Halve once per level, never below 1: a fully degraded service still
  // retrains one shard per (widened) cycle, so it always makes progress.
  size_t shift = static_cast<size_t>(
      std::min<uint64_t>(level_, 8 * sizeof(size_t) - 1));
  size_t shrunk = base >> shift;
  return shrunk == 0 ? 1 : shrunk;
}

}  // namespace dbaugur::serve
