// Differential oracles for the chaos harness.
//
// RunSequentialReference is a deliberately independent, single-threaded,
// fault-free reimplementation of the serve ingest semantics (validation
// order, quarantine bounds, lateness cutoff, epoch-origin binning). The
// production path — serve::TraceIngestor + trace::TraceBinner, with their
// locks, atomics and fault hooks — must agree with it event for event on the
// identical stream; CompareIngest checks counters and binned totals exactly.
// The binner is the one trace store, shared by every shard and the offline
// trace::TraceExtractor, so this also checks the binning the template leg's
// extractor does; the reference keeps its own floor division for that reason.
//
// Under an armed DBAUGUR_FAULT_SPEC storm exact equality is forfeit (an
// injected corruption legitimately moves events between categories), so the
// harness falls back to the conservation law every configuration must obey:
// offered == accepted + sum(drop categories). CheckSnapshotFinite is the
// "no NaN/Inf escapes a snapshot" invariant.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/ingestor.h"
#include "serve/snapshot.h"

namespace dbaugur::chaos {

/// Ingest semantics mirrored by the reference (see serve::IngestorOptions).
/// No queue capacity: the reference consumer is always caught up, so a
/// production run being compared must drain often enough to never drop on a
/// full queue.
struct ReferenceOptions {
  size_t max_templates = 512;
  int64_t max_lateness_seconds = 6 * 3600;
  int64_t min_timestamp_seconds = 0;
  int64_t max_timestamp_seconds = 4102444800;
  int64_t interval_seconds = 600;
};

/// What the reference computed from an event stream.
struct ReferenceResult {
  uint64_t offered = 0;
  uint64_t accepted = 0;
  serve::IngestDropStats drops;  ///< Per-category quarantine counts.
  bool any = false;              ///< Any event accepted (bins valid below).
  int64_t min_bin = 0;
  int64_t max_bin = 0;
  /// template id -> (epoch-origin bin index -> summed count).
  std::map<uint32_t, std::map<int64_t, double>> bins;
};

/// Folds `events` in order through the reference semantics.
ReferenceResult RunSequentialReference(
    const std::vector<serve::TraceEvent>& events, const ReferenceOptions& opts);

/// Exact differential check: the production ingestor's counters and the
/// production binner's materialized traces must match the reference —
/// accepted count, every drop category, template set, bin range, and every
/// binned value. The first divergence found is described in the error.
Status CompareIngest(const ReferenceResult& ref,
                     const serve::TraceIngestor& ingestor,
                     const serve::TraceBinner& binner);

/// Conservation law that must hold with or without fault storms:
/// offered == accepted + total drops (every event is accounted exactly once).
Status CheckIngestConservation(uint64_t offered,
                               const serve::TraceIngestor& ingestor);

/// One shard's ingest outcome, sampled after its queue fully drained.
struct ShardIngestView {
  uint64_t accepted = 0;
  serve::IngestDropStats drops;
  /// template id -> (bin -> summed count); ServiceShard::BinContents().
  std::map<uint32_t, std::map<int64_t, double>> bins;
};

/// Exact differential check for a sharded run against the single-stream
/// reference: every template must live on exactly the shard the routing hash
/// names, the union of per-shard binned histories must equal the reference's
/// bins value-for-value, the accepted counts must sum to the reference's, and
/// every drop class must sum to the reference's class count. Valid only when
/// per-shard state cannot legitimately diverge from the global view: no fault
/// storm, no queue-full drops, and no stale-class drops (each shard tracks
/// its own lateness watermark over the subset of events it sees, so a stream
/// that trips the global stale cutoff may be accepted by a lagging shard —
/// callers gate on ref.drops.stale == 0).
Status CompareShardedIngest(const ReferenceResult& ref,
                            const std::vector<ShardIngestView>& shards);

/// No NaN/Inf escapes a published snapshot: cluster forecasts, volumes,
/// representatives and trace proportions must all be finite (and proportions
/// within [0, 1]).
Status CheckSnapshotFinite(const serve::ServiceSnapshot& snap);

}  // namespace dbaugur::chaos
