#include "serve/retrain_scheduler.h"

#include <algorithm>

namespace dbaugur::serve {

uint64_t BackoffCycles(uint64_t consecutive_failures) {
  if (consecutive_failures == 0) return 0;
  uint64_t exp = std::min<uint64_t>(consecutive_failures - 1, 6);
  return uint64_t{1} << exp;
}

std::vector<size_t> ScheduleRetrains(const std::vector<ShardSignal>& signals,
                                     size_t budget) {
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
    c.starved = s.cycles_waited >= kStarvationCycles;
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
  size_t take =
      budget == 0 ? eligible.size() : std::min(budget, eligible.size());
  std::vector<size_t> order;
  order.reserve(take);
  for (size_t i = 0; i < take; ++i) order.push_back(eligible[i].shard_id);
  return order;
}

}  // namespace dbaugur::serve
