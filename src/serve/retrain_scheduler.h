// Deterministic priority scheduling for sharded retraining.
//
// The sharded service replaces the single global retrain cycle with a
// per-cycle schedule: every cycle it samples each shard's signals (pending
// events, cycles since last retrain, failure streak) and asks
// ScheduleRetrains for the ordered subset of shards to retrain this cycle.
// The function is pure — same signals, same budget, same schedule — so the
// retrain order is reproducible run-to-run and testable in isolation.
//
// Policy:
//   - Work-conserving: a shard with no pending events is never scheduled
//     (its published snapshot already reflects everything it has seen).
//   - Priority = pending_events × (cycles_waited + 1): traffic volume scaled
//     by staleness, so hot shards retrain first but waiting inflates cold
//     shards until they win. Computed in 128-bit so extreme queues cannot
//     overflow-invert the order. Ties break toward the lower shard id.
//   - Starvation bound: a shard that has waited >= kStarvationCycles with
//     pending traffic is force-promoted ahead of every non-starved shard
//     (longest wait first). With S eligible shards and budget B, every
//     pending shard is therefore scheduled at least once every
//     kStarvationCycles + ceil(S/B) cycles.
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
  /// Events queued or folded since the shard's last retrain attempt.
  uint64_t pending_events = 0;
  uint64_t cycles_waited = 0;         ///< Cycles since last scheduled.
  uint64_t consecutive_failures = 0;  ///< 0 after any successful retrain.
};

/// Cycles a pending shard waits before it is promoted ahead of hotter shards.
inline constexpr uint64_t kStarvationCycles = 4;

/// Cycles a shard must wait after `consecutive_failures` failures before it
/// is eligible again: 0 for a healthy shard, else 2^(failures-1) capped at
/// 2^6 = 64, so a shard that failed for hours is still retried about a
/// minute after its last failure at the default 1 s retrain interval. Pure,
/// so tests can recompute the exact schedule.
uint64_t BackoffCycles(uint64_t consecutive_failures);

/// Returns the shard ids to retrain this cycle, highest priority first, at
/// most `budget` of them (0 = every eligible shard). Deterministic: a pure
/// function of (signals, budget) with total ordering (ties broken by shard
/// id).
std::vector<size_t> ScheduleRetrains(const std::vector<ShardSignal>& signals,
                                     size_t budget);

}  // namespace dbaugur::serve
