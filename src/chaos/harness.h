// End-to-end chaos harness: generates a seeded grammar stream
// (chaos/stream_gen.h), drives it through the full pipeline — raw text
// through the log parser and SQL2Template, pre-parsed events through the
// production serve ingest, clustering, optionally the forecast service
// (ShardedForecastService, with save → load → resume) and the dbsim replay /
// migrate consumers — and checks every leg against ground truth and the
// differential oracles (chaos/oracle.h).
//
// Any failure yields a ChaosReport whose repro line ("--seed=N --profile=P")
// regenerates the identical stream, plus — for event-differential failures —
// a minimized failing prefix and the window of events around the divergence.

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/stream_gen.h"
#include "serve/ingestor.h"

namespace dbaugur::chaos {

/// One chaos run's configuration.
struct ChaosOptions {
  StreamOptions stream;
  /// Also run the dbsim replay + migrate legs over the replayable subset.
  bool replay = false;
  /// The service leg's shard count; 0 skips the leg. With N >= 1 the
  /// identical event stream goes through an N-shard ShardedForecastService:
  /// chunked ingest with periodic retrain cycles and per-shard snapshot
  /// invariants (finite, generation monotone), router conservation, and the
  /// exact differential against the single-stream sequential reference
  /// (routing, union of per-shard binned histories, drop classes —
  /// chaos/oracle.h's CompareShardedIngest). A single-shard run also
  /// restores a midpoint checkpoint through SaveToFiles/LoadFromFiles into a
  /// second service and checks resume equality. Each exact oracle skips
  /// itself where the configuration makes it inexact (fault storms, skewed
  /// streams, retrain deadlines).
  size_t service_shards = 0;
  /// Retrain workers for the sharded leg (>= 1). With > 1, scheduled shards
  /// retrain concurrently; the leg's invariants (generation monotonicity,
  /// snapshot finiteness, router conservation) must hold at any worker count.
  size_t service_workers = 1;
  /// Per-retrain deadline for the sharded leg; <= 0 disables. Arm
  /// together with a `serve.retrain.hang` fault storm to exercise the
  /// cancel → degraded-stale → recover path under chaos streams.
  double retrain_deadline_seconds = 0.0;
  /// Per-cycle retrain budget for the sharded leg (0 = unbounded). A small
  /// budget leaves most shards unscheduled each cycle; their queues are
  /// folded all the same, so the exact ingest oracle still holds bin for bin.
  size_t retrain_budget = 0;
};

/// Outcome of one chaos run.
struct ChaosReport {
  bool ok = true;
  std::string stage;    ///< First failing stage name; empty when ok.
  std::string failure;  ///< First failure description; empty when ok.
  std::string repro;    ///< One-line reproducer: "--seed=N --profile=P ...".
  std::string window;   ///< Minimized event window (events stage only).
  size_t events = 0;    ///< Parsed events the run ingested (throughput
                        ///< accounting for the soak/smoke perf net).

  /// One-line success, or a multi-line failure block with the repro line.
  std::string Summary() const;
};

/// Runs the full harness once. Deterministic in ChaosOptions (and in the
/// armed fault spec, whose site counters are process-global: arm the same
/// spec from a fresh Configure to reproduce a fault-storm run).
ChaosReport RunChaos(const ChaosOptions& opts);

/// Smallest prefix length in [1, n] for which fails_at() returns true, given
/// that fails_at(n) is true. Binary-searches assuming monotonicity (a failing
/// prefix stays failing as it grows), then verifies the answer is a true
/// boundary; if the predicate turns out non-monotone, falls back to a linear
/// scan from the front. fails_at is invoked O(log n) times (O(n) fallback).
size_t MinimizeFailingPrefix(size_t n,
                             const std::function<bool(size_t)>& fails_at);

/// Renders the last `max_window` events of the prefix [0, end) — the window
/// a minimized divergence points at — one event per line.
std::string FormatEventWindow(const std::vector<serve::TraceEvent>& events,
                              size_t end, size_t max_window = 8);

}  // namespace dbaugur::chaos
