// Deterministic priority scheduling for sharded retraining.
//
// The sharded service replaces the single global retrain cycle with a
// per-cycle schedule: every cycle it samples each shard's signals (queued
// events, cycles since last retrain, failure streak) and asks
// ScheduleRetrains for the ordered subset of shards to retrain this cycle.
// The function is pure — same signals, same options, same schedule — so the
// retrain order is reproducible run-to-run and testable in isolation.
//
// Policy:
//   - Work-conserving: a shard with no queued events is never scheduled (its
//     published snapshot already reflects everything it has seen).
//   - Priority = pending_events × (cycles_waited + 1): traffic volume scaled
//     by staleness, so hot shards retrain first but waiting inflates cold
//     shards until they win. Computed in 128-bit so extreme queues cannot
//     overflow-invert the order. Ties break toward the lower shard id.
//   - Starvation bound: a shard that has waited >= starvation_cycles with
//     pending traffic is force-promoted ahead of every non-starved shard
//     (longest wait first). With S eligible shards and budget B, every
//     pending shard is therefore scheduled at least once every
//     starvation_cycles + ceil(S/B) cycles.
//   - Failure backoff in cycles: after f consecutive failures a shard is
//     ineligible until it has waited 2^(f-1) cycles (capped), so a
//     persistently failing shard cannot monopolize the budget — and the
//     starvation promotion never overrides the backoff.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbaugur::serve {

/// One shard's scheduling inputs, sampled at the top of a cycle.
struct ShardSignal {
  size_t shard_id = 0;
  uint64_t pending_events = 0;        ///< Ingest queue depth.
  uint64_t cycles_waited = 0;         ///< Cycles since last scheduled.
  uint64_t consecutive_failures = 0;  ///< 0 after any successful retrain.
};

struct RetrainSchedulerOptions {
  /// Max shards scheduled per cycle (0 = every eligible shard).
  size_t budget = 0;
  /// Waited-cycle threshold for forced promotion (>= 1).
  uint64_t starvation_cycles = 4;
};

/// Cycles a shard must wait after `consecutive_failures` failures before it
/// is eligible again: 0 for a healthy shard, else 2^(failures-1) capped at
/// 2^6 = 64, so a shard that failed for hours is still retried about a
/// minute after its last failure at the default 1 s retrain interval. Pure,
/// so tests can recompute the exact schedule.
uint64_t BackoffCycles(uint64_t consecutive_failures);

/// Returns the shard ids to retrain this cycle, highest priority first.
/// Deterministic: a pure function of (signals, opts) with total ordering
/// (ties broken by shard id).
std::vector<size_t> ScheduleRetrains(const std::vector<ShardSignal>& signals,
                                     const RetrainSchedulerOptions& opts);

/// Overload-adaptation knobs (see OverloadController).
struct OverloadOptions {
  /// Consecutive backlog-growth cycles before escalating one level
  /// (0 disables adaptation entirely — level stays 0).
  uint64_t grow_cycles = 3;
  /// Consecutive non-growth cycles before recovering one level.
  uint64_t drain_cycles = 2;
  /// Ceiling on the degradation level (each level halves the budget and
  /// doubles the cycle interval). Must be < 64: the interval multiplier is
  /// 2^level (see OverloadIntervalScale).
  uint64_t max_level = 3;
};

/// Scheduler-interval multiplier at overload `level`: 2^level, exact for
/// every level OverloadController can reach (max_level < 64).
double OverloadIntervalScale(uint64_t level);

/// Deterministic overload ladder for the sharded scheduler. Fed the total
/// pending backlog (sum of shard queue depths) once per completed cycle, it
/// tracks whether the service is keeping up: `grow_cycles` consecutive cycles
/// of strictly growing backlog escalate one degradation level; `drain_cycles`
/// consecutive cycles of non-growing backlog recover one. Each level halves
/// the effective per-cycle retrain budget (never below 1) and doubles the
/// scheduler interval (2^level), shedding retrain work before queues blow
/// out; when lag drains the ladder walks back down to full throughput on its
/// own. Pure state machine — no clocks, no randomness — so tests pin exact
/// escalate/recover schedules.
class OverloadController {
 public:
  /// Aborts (DBAUGUR_CHECK) unless opts.max_level < 64.
  explicit OverloadController(const OverloadOptions& opts);

  /// Feeds one completed cycle's backlog sample; returns the level after the
  /// update. Single-threaded by contract (the sharded service calls it under
  /// cycle_mu_).
  uint64_t Observe(uint64_t backlog);

  uint64_t level() const { return level_; }

  /// Budget after degradation: `base_budget` (0 = unbounded, i.e.
  /// `shard_count`) halved once per level, floored at 1 so the scheduler
  /// always stays work-conserving.
  size_t DegradedBudget(size_t base_budget, size_t shard_count) const;

  /// Multiplier on the retrain interval: 2^level.
  double IntervalScale() const { return OverloadIntervalScale(level_); }

 private:
  OverloadOptions opts_;
  uint64_t level_ = 0;
  uint64_t growth_streak_ = 0;
  uint64_t drain_streak_ = 0;
  uint64_t last_backlog_ = 0;
  bool have_last_ = false;
};

}  // namespace dbaugur::serve
