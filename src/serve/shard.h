// One serving shard: the single-shard unit ShardedForecastService owns N of
// and routes to by template-key hash (see serve/sharded_service.h). A
// single-shard deployment is that service at shard_count = 1.
//
// A ServiceShard owns its own bounded ingest queue, TraceBinner + Retrainer
// with an independently positioned seed stream, published immutable snapshot
// pointer, and failure/degradation counters. Reads are a pointer copy under a
// nanosecond-scale mutex; RetrainOnce drains, folds, retrains, and publishes,
// and FoldQueued drains and folds alone. Shards share no mutable state, so N
// shards retrain concurrently without contending anywhere.
//
// Concurrency model: producers Offer() into the bounded ingest queue; one
// retrain call at a time drains it, re-runs the clustering + ensemble
// pipeline, and publishes a fresh immutable ServiceSnapshot by swapping a
// shared_ptr under a dedicated pointer-copy mutex. That mutex guards only the
// nanosecond-scale copy/swap of the pointer — readers never hold a lock
// across a forecast call and never contend with the retrain path. (A
// `std::atomic` of `shared_ptr` would make the copy itself lock-free, but
// libstdc++ 12's _Sp_atomic predates the _GLIBCXX_TSAN annotations (GCC PR
// 101761) and reports false races under the TSan preset this repo gates on —
// tools/lint.py rejects the type tree-wide for that reason.)
//
// Every mutex below is a capability-annotated dbaugur::Mutex and every field
// it protects carries DBAUGUR_GUARDED_BY: retrain_mu_ serializes the training
// side (and is the outermost lock), snapshot_mu_ guards only the pointer
// swap, error_mu_ the last_error record.
//
// Failure model: a failed retrain never disturbs the published snapshot —
// readers keep the previous generation. Failures are counted per shard and
// logged exactly once each; the owning service's scheduler backs a failing
// shard off in cycles (serve/retrain_scheduler.h). Individual diverged
// clusters degrade independently inside the snapshot build (see
// serve/snapshot.h).

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/binio.h"
#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dbaugur.h"
#include "serve/ingestor.h"
#include "serve/retrainer.h"
#include "serve/snapshot.h"

namespace dbaugur {
class ThreadPool;
}  // namespace dbaugur

namespace dbaugur::serve {

/// Full serving configuration (per shard; a sharded service applies one
/// ServeOptions uniformly — see ShardedServeOptions).
struct ServeOptions {
  core::DBAugurOptions pipeline;        ///< Clustering + forecasting options.
  size_t queue_capacity = 4096;         ///< Ingest queue bound (>= 1).
  size_t max_templates = 4096;          ///< Reject template ids beyond this.
  int64_t bin_interval_seconds = 600;   ///< Forecasting interval I (> 0).
  double retrain_interval_seconds = 1.0;  ///< Background cycle period (> 0).
  size_t min_bins = 0;                  ///< Bins before first train (0: auto).
  uint64_t seed = 42;                   ///< Base seed for the retrain stream.
  /// Events older than the newest accepted timestamp by more than this are
  /// quarantined at ingest (negative disables; see IngestorOptions).
  int64_t max_lateness_seconds = 24 * 3600;
  /// Absolute clock-skew bounds: events timestamped before/after these are
  /// quarantined at ingest (negative disables; see IngestorOptions).
  int64_t min_timestamp_seconds = 0;
  int64_t max_timestamp_seconds = 4102444800;  ///< 2100-01-01T00:00:00Z.
  /// Median/MAD winsorization threshold for the retrain path (<= 0 off).
  double winsorize_k = 8.0;
  /// Per-cluster forecast sanity bound (multiples of the representative's
  /// observed span; <= 0 disables the range check).
  double divergence_multiple = 10.0;
};

/// Serving state of one shard, or the worst of all shards. Ordered from
/// best to worst, so the service-wide state is the max over the shards.
enum class HealthState {
  kUntrained,  ///< No generation published yet.
  kHealthy,    ///< Serving, no degraded clusters, no active failures.
  kDegraded,   ///< Serving, but >= 1 cluster is on a fallback model.
  kBackoff,    ///< Last retrain failed; the scheduler is backing off.
};

/// The one status record: a shard's row, or the fold of every row into the
/// service-wide record (ShardedForecastService::stats() and the base of its
/// Health()). ServiceShard::stats() fills every field but cycles_waited,
/// which the service adds. Point-in-time reads that never wait behind a
/// retrain; counters are monotonic and relaxed, so they may trail by an
/// event. "Fold:" says what the service-wide record holds.
struct ServeStats {
  size_t shard_id = 0;  ///< Fold: 0.
  /// kBackoff while failures are unanswered, else kDegraded with a fallback
  /// cluster, else kHealthy once trained. Fold: the worst.
  HealthState state = HealthState::kUntrained;
  uint64_t generation = 0;         ///< Published snapshot. Fold: max.
  size_t cluster_count = 0;        ///< Fold: sum.
  size_t degraded_clusters = 0;    ///< On a fallback model. Fold: sum.
  size_t queue_depth = 0;          ///< Events queued, not folded. Fold: sum.
  uint64_t events_accepted = 0;    ///< Fold: sum.
  /// Every drop by class; drops.quarantined() counts the malformed-input
  /// ones. Fold: per-class sum.
  IngestDropStats drops;
  uint64_t events_dropped = 0;     ///< drops.total(). Fold: sum.
  uint64_t values_winsorized = 0;  ///< Trace values clamped. Fold: sum.
  uint64_t retrains_completed = 0;  ///< Fold: sum.
  uint64_t retrains_skipped = 0;   ///< Too little data to train. Fold: sum.
  uint64_t retrains_failed = 0;    ///< Fold: sum.
  /// Cancelled retrains (a passed deadline or an explicit Cancel; a subset
  /// of retrains_failed). Fold: sum.
  uint64_t retrains_cancelled = 0;
  uint64_t consecutive_failures = 0;  ///< 0 after a success. Fold: max.
  /// Serving last-good because the latest retrain was cancelled, and why;
  /// cleared by the next publish. Fold: any, with the lowest such shard's
  /// reason.
  bool degraded_stale = false;
  std::string stale_reason;
  double last_retrain_seconds = 0.0;  ///< Last retrain's length. Fold: max.
  double staleness_seconds = 0.0;     ///< Since the last publish. Fold: max.
  uint64_t cycles_waited = 0;  ///< Scheduler cycles since a pick. Fold: max.
  /// Most recent retrain failure (empty message if none yet): observed after
  /// `last_error_cycles` completed cycles, while generation
  /// `last_error_generation` was served, `last_error_age_seconds` ago (< 0:
  /// never failed). Fold: the record with the newest generation.
  std::string last_error;
  uint64_t last_error_cycles = 0;
  uint64_t last_error_generation = 0;
  double last_error_age_seconds = -1.0;

  /// Folds one shard's row into this service-wide record.
  void Fold(const ServeStats& row);
};

class ServiceShard {
 public:
  /// Aborts (DBAUGUR_CHECK) on out-of-range options. Publishes an empty
  /// generation-0 snapshot so readers always have a valid pointer.
  ServiceShard(const ServeOptions& opts, size_t shard_id);
  ServiceShard(const ServiceShard&) = delete;
  ServiceShard& operator=(const ServiceShard&) = delete;

  /// Thread-safe, non-blocking event ingest (see TraceIngestor::Offer).
  bool Offer(const TraceEvent& event) { return ingestor_.Offer(event); }

  /// Copies the current immutable snapshot pointer (the only work done under
  /// snapshot_mu_). The returned pointer stays valid (and frozen) for as long
  /// as the caller holds it, no matter how many retrains publish newer
  /// generations meanwhile.
  std::shared_ptr<const ServiceSnapshot> snapshot() const
      DBAUGUR_EXCLUDES(snapshot_mu_) {
    MutexLock lock(&snapshot_mu_);
    return snapshot_ptr_;
  }

  /// Generation of the latest published snapshot (0 until first train).
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Runs one drain → fold → retrain → publish cycle synchronously. OK when
  /// the cycle is skipped for lack of data (the skip is counted in stats).
  /// A failure is recorded (stats + last_error, logged once) and returned;
  /// the published snapshot is untouched. Serialized against concurrent
  /// retrains and state install via retrain_mu_. `fit_pool` (may be null) is
  /// a caller-owned pool for the Descender sweep and the ensemble member
  /// fits; the sharded service passes the one fit pool all of its shards
  /// share.
  ///
  /// `cancel` (may be null) is a cooperative cancellation token, usually
  /// carrying the retrain's deadline (see common/cancellation.h), polled at
  /// epoch granularity. A cancelled cycle counts as a failure — it
  /// feeds the consecutive_failures backoff streak and retrains_cancelled —
  /// and additionally marks the shard degraded-stale: it keeps serving the
  /// last-good snapshot, with the cancel reason in stats().stale_reason,
  /// until the next successful publish clears it. Events drained before the
  /// cancellation are already folded into the binner, so no data is lost.
  Status RetrainOnce(ThreadPool* fit_pool = nullptr,
                     const CancelToken* cancel = nullptr)
      DBAUGUR_EXCLUDES(retrain_mu_);

  /// Drains the ingest queue into the binned history without retraining.
  /// The sharded scheduler calls it for every shard a cycle did not retrain,
  /// so a queue never holds more than about one cycle of traffic.
  void FoldQueued() DBAUGUR_EXCLUDES(retrain_mu_);

  /// This shard's status row (every field but cycles_waited). Reads the
  /// snapshot pointer, the error record and the queue depth; never takes
  /// retrain_mu_, so it never waits behind an in-flight rebuild.
  ServeStats stats() const DBAUGUR_EXCLUDES(snapshot_mu_, error_mu_);

  /// Scheduler signals and bench probes (cheap; none take retrain_mu_).
  size_t queue_depth() const { return ingestor_.size(); }
  /// The scheduler's traffic signal: events still queued plus events folded
  /// since the last retrain attempt (or save). Counting the folded ones
  /// keeps the signal independent of when the queue was last folded.
  uint64_t pending_events() const {
    return folded_since_retrain_.load(std::memory_order_relaxed) +
           ingestor_.size();
  }
  uint64_t consecutive_failures() const {
    return consecutive_failures_.load(std::memory_order_relaxed);
  }
  /// True while the shard serves a last-good snapshot because its most recent
  /// retrain was cancelled mid-flight. Cleared by the next successful publish
  /// (or state install).
  bool degraded_stale() const {
    return degraded_stale_.load(std::memory_order_acquire);
  }
  /// Duration of the most recent RetrainOnce call, seconds (0 before any).
  double last_retrain_seconds() const;

  /// Serializes this shard's full state — binned history, retrain-cycle
  /// position, and the published snapshot with every model parameter in
  /// lossless float64 — appended to *w. Pending queued events are folded in
  /// first so nothing is lost across a restart, and pending_events() restarts
  /// from the queue depth, as on a restored shard. The sharded checkpoint wraps
  /// it in its per-shard file header. Layout: U64 generation, Bytes(U64
  /// retrain cycles + TraceBinner::Save), U8 trained flag, then
  /// Bytes(snapshot) when trained.
  Status SaveStateSection(BufWriter* w) DBAUGUR_EXCLUDES(retrain_mu_);

  /// A fully parsed + validated SaveStateSection, not yet installed. Restore
  /// is two-phase so multi-shard checkpoints are all-or-nothing: parse every
  /// shard's section first, install only if all of them verified.
  struct ParsedState {
    uint64_t generation = 0;
    uint64_t cycles = 0;               ///< Seed-stream position.
    TraceBinner binner{1};             ///< Interval restored by parsing.
    std::shared_ptr<const ServiceSnapshot> snapshot;  ///< Never null.
  };

  /// Parses and validates a SaveStateSection against this shard's options
  /// (bin interval, pipeline shape, snapshot forecast reproduction) without
  /// touching any mutable state. The reader is left positioned after the
  /// section.
  StatusOr<ParsedState> ParseStateSection(BufReader* r) const;

  /// Commits a ParsedState: swaps in the binner, fast-forwards the seed
  /// stream to the saved cycle count, and publishes the restored snapshot.
  void InstallParsedState(ParsedState state) DBAUGUR_EXCLUDES(retrain_mu_);

  /// Copy of the shard's binned history (template id -> bin -> summed count):
  /// the differential-oracle surface of the chaos harness, which checks the
  /// union of per-shard histories against a single-stream reference. It
  /// holds every event folded so far, whether or not a retrain used it;
  /// events offered since the last fold are still queued and not included.
  std::map<uint32_t, std::map<int64_t, double>> BinContents()
      DBAUGUR_EXCLUDES(retrain_mu_);

 private:
  /// Swaps in a new snapshot + generation under snapshot_mu_ and clears any
  /// degraded-stale marker (the shard is fresh again).
  void Publish(std::shared_ptr<const ServiceSnapshot> snap, uint64_t gen)
      DBAUGUR_EXCLUDES(snapshot_mu_, error_mu_);

  /// Records a retrain failure: counters, last_error, one WARN log line.
  /// Reads retrainer_.cycles(), hence the retrain_mu_ requirement.
  void RecordFailure(const Status& st) DBAUGUR_REQUIRES(retrain_mu_);

  /// The one fold path (RetrainOnce, SaveStateSection, FoldQueued): drains
  /// the ingest queue into the binner and counts the events toward
  /// pending_events().
  void FoldQueuedLocked() DBAUGUR_REQUIRES(retrain_mu_);

  ServeOptions opts_;
  size_t shard_id_ = 0;
  TraceIngestor ingestor_;

  /// Serializes the whole training side: RetrainOnce, save, install.
  /// Outermost lock — snapshot_mu_ and error_mu_ nest inside it, never the
  /// reverse.
  Mutex retrain_mu_ DBAUGUR_ACQUIRED_BEFORE(snapshot_mu_, error_mu_);
  Retrainer retrainer_ DBAUGUR_GUARDED_BY(retrain_mu_);

  /// Guards only the nanosecond-scale snapshot-pointer copy/swap, never work.
  mutable Mutex snapshot_mu_;
  std::shared_ptr<const ServiceSnapshot> snapshot_ptr_
      DBAUGUR_GUARDED_BY(snapshot_mu_);
  std::atomic<uint64_t> generation_{0};

  std::atomic<uint64_t> retrains_completed_{0};
  std::atomic<uint64_t> retrains_skipped_{0};
  std::atomic<uint64_t> retrains_failed_{0};
  std::atomic<uint64_t> retrains_cancelled_{0};
  std::atomic<uint64_t> consecutive_failures_{0};
  std::atomic<uint64_t> values_winsorized_{0};
  /// Events folded since the last retrain attempt, save or state install.
  /// Written under retrain_mu_, read lock-free by pending_events().
  std::atomic<uint64_t> folded_since_retrain_{0};
  /// Set when the last retrain was cancelled; cleared on the next publish.
  std::atomic<bool> degraded_stale_{false};

  /// Monotonic-clock nanosecond stamps (steady_clock since-epoch) for the
  /// stats() staleness / duration fields. Stamp 0 means "not yet".
  std::atomic<uint64_t> last_retrain_nanos_{0};
  std::atomic<uint64_t> last_publish_stamp_{0};
  std::atomic<uint64_t> last_error_stamp_{0};

  mutable Mutex error_mu_;  ///< Guards the last_error / stale-reason records.
  std::string last_error_ DBAUGUR_GUARDED_BY(error_mu_);
  uint64_t last_error_cycles_ DBAUGUR_GUARDED_BY(error_mu_) = 0;
  uint64_t last_error_generation_ DBAUGUR_GUARDED_BY(error_mu_) = 0;
  std::string stale_reason_ DBAUGUR_GUARDED_BY(error_mu_);
};

}  // namespace dbaugur::serve
