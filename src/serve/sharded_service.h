// Forecast serving: N independent ServiceShards behind a deterministic hash
// router and a priority retrain scheduler. A single-shard deployment is
// shard_count = 1.
//
//   ShardedServeOptions o;
//   o.shard = serve_options;            // applied uniformly to every shard
//   o.shard_count = 16;
//   ShardedForecastService svc(o);
//   svc.Start();                        // background scheduler loop
//   svc.Offer({template_id, ts, n});    // routed by ShardOfKey(template_id)
//   svc.SnapshotForTemplate(id);        // same hash, lock-free-feeling read
//   svc.RetrainCycle();                 // one scheduler cycle, synchronous
//   svc.SaveToFiles(base);              // per-shard checkpoint + manifest
//   svc.LoadFromFiles(base);            // all-or-nothing, migrates on
//                                       //   shard-count change by re-hashing
//
// Routing: template id -> ShardOfKey(id, shard_count) (common/hashing.h), a
// pure function of the key and the shard count — stable across runs, hosts,
// and save/load. Every shard gets the same ServeOptions, including the same
// base seed: shards draw from identically seeded streams at independently
// persisted positions (cycle counters), so a shard_count=1 service is
// bit-identical to a bare ServiceShard driven by RetrainOnce, and per-cluster
// forecasts at any shard count match a single-shard run fed the same
// per-shard event interleavings (pinned by tests/serve_shard_test.cpp).
//
// Retraining: each RetrainCycle samples per-shard signals (pending events,
// cycles waited, failure streak), asks serve/retrain_scheduler.h for a
// deterministic priority order (traffic × staleness, starvation-bounded,
// failure-backoff in cycles), and drains that order on the service's shard
// pool: a common::ThreadPool of retrain_workers lanes, one of which is the
// thread calling RetrainCycle. ParallelFor claims shards in schedule order,
// so hot shards go first regardless of worker count. Every concurrent
// retrain runs its Descender sweep and member fits on one shared fit pool of
// clustering.threads lanes, so a service spawns (W−1)+(L−1) pool threads for
// W workers and L fit lanes, plus its scheduler thread. Every shard the
// schedule skipped (budget, backoff, no traffic) then has its ingest queue
// folded into its binned history, so every cycle empties every queue: the
// budget decides only which shards refit, never which events survive. A
// shard's pending events are those still queued plus those folded since its
// last retrain attempt. Reads are never blocked: they route to the shard and
// copy its snapshot pointer.
//
// Deadlines: with retrain_deadline_seconds > 0, each shard retrain gets a
// CancelToken whose deadline is armed when its task starts, polled before
// every member-fit epoch. A poll after the deadline reads cancelled, so no
// thread supervises: an overrunning or hung retrain (exercised by the
// serve.retrain.hang / serve.retrain.slow fault points) unwinds at its next
// checkpoint, the shard keeps serving its last-good snapshot marked
// degraded-stale (reason in Health()), and the cancellation feeds the shard's
// failure-backoff streak. One stuck shard can therefore never stall the
// publish loop for the others. Without a deadline a retrain gets no token,
// since nothing could cancel it.
//
// Checkpoint manifest format (all through common/binio's CRC32-framed
// write-temp → fsync → rename path, previous good file kept as `.bak`):
//   <base>.manifest : U32 magic, U32 version, U64 shard_count,
//                     U64 bin_interval_seconds, U64 seed
//   <base>.shard<i> : U32 magic, U32 version, U64 shard_count, U64 shard_id,
//                     then the shard's state section (see
//                     ServiceShard::SaveStateSection)
// Each file is individually crash-safe; restore is all-or-nothing in memory
// (every file parsed and validated before any shard is touched). A shard
// file that passes its checksum but fails validation is retried from its
// `.bak` previous good copy. Because shards persist independent seed-stream
// positions, a crash between shard file writes leaves a mixed-epoch but
// still self-consistent checkpoint.
//
// Shard-count migration: loading a checkpoint written with a different
// shard_count re-partitions the binned history by re-hashing every template
// id into the new layout (bin-for-bin, losing no template keys — set
// equality is pinned by test). Each migrated shard's seed-stream position is
// the max over the old shards that contributed templates to it, so no seed
// that already trained contributed data is replayed. Published snapshots
// cannot be re-keyed across shard boundaries, so migration restores shards
// untrained at generation 0; the first retrain cycle rebuilds them from the
// migrated history.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hashing.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "serve/shard.h"

namespace dbaugur::serve {

struct ShardedServeOptions {
  ServeOptions shard;        ///< Per-shard configuration (uniform).
  size_t shard_count = 1;    ///< Number of independent shards (>= 1).
  /// Max shards retrained per scheduler cycle (0 = every eligible shard).
  /// Shards past the budget still have their queues folded that cycle.
  size_t retrain_budget = 0;
  /// Shards retrained at once within one cycle (>= 1); the thread running
  /// the cycle is one of them.
  size_t retrain_workers = 1;
  /// Per-shard retrain deadline within a cycle, seconds, counted from when
  /// the shard's retrain starts (<= 0: no deadline). An overrunning retrain
  /// is cooperatively cancelled; the shard serves last-good and backs off.
  double retrain_deadline_seconds = 0.0;
};

/// Service-wide status: the fold of every shard's row (the ServeStats base;
/// each field's comment there says how it folds) plus what only the service
/// knows.
struct ShardedServiceHealth : ServeStats {
  uint64_t cycles = 0;             ///< Completed scheduler cycles.
  size_t stale_shards = 0;         ///< Shards currently degraded-stale.
  std::vector<ServeStats> shards;  ///< One row per shard, by shard id.
};

class ShardedForecastService {
 public:
  /// Aborts (DBAUGUR_CHECK) on out-of-range options. Every shard publishes
  /// an empty generation-0 snapshot, so reads are valid immediately.
  explicit ShardedForecastService(const ShardedServeOptions& opts);
  ~ShardedForecastService();
  ShardedForecastService(const ShardedForecastService&) = delete;
  ShardedForecastService& operator=(const ShardedForecastService&) = delete;

  size_t shard_count() const { return shards_.size(); }

  /// The shard owning `template_id` (pure; same mapping Offer uses).
  size_t ShardOf(uint32_t template_id) const {
    return ShardOfKey(template_id, shards_.size());
  }

  /// Thread-safe, non-blocking ingest, routed to the owning shard.
  bool Offer(const TraceEvent& event) {
    return shards_[ShardOf(event.template_id)]->Offer(event);
  }

  /// Snapshot of one shard by id / of the shard owning a template.
  std::shared_ptr<const ServiceSnapshot> snapshot(size_t shard_id) const {
    return shards_[shard_id]->snapshot();
  }
  std::shared_ptr<const ServiceSnapshot> SnapshotForTemplate(
      uint32_t template_id) const {
    return shards_[ShardOf(template_id)]->snapshot();
  }

  /// Direct shard access (stats, tests, manual RetrainOnce).
  ServiceShard& shard(size_t shard_id) { return *shards_[shard_id]; }

  /// Runs one scheduler cycle synchronously: samples signals, schedules
  /// within the budget, drains the schedule on the shard pool — this thread
  /// is one of its lanes, and each retrain runs under the configured
  /// deadline — and then folds the queue of every shard it did not
  /// schedule. Returns the scheduled shard ids in priority order —
  /// determinism tests pin this. Per-shard failures (cancellations included)
  /// are recorded in the shard's stats and backed off in cycles by the
  /// scheduler; the cycle itself always runs to completion. Serialized
  /// against concurrent cycles and LoadFromFiles.
  std::vector<size_t> RetrainCycle() DBAUGUR_EXCLUDES(cycle_mu_);

  /// Starts the background scheduler thread (idempotent).
  void Start() DBAUGUR_EXCLUDES(lifecycle_mu_);
  /// Stops and joins the background thread (idempotent; called by dtor).
  void Stop() DBAUGUR_EXCLUDES(lifecycle_mu_);
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Completed scheduler cycles.
  uint64_t cycles() const { return cycles_done_.load(std::memory_order_acquire); }

  /// The service-wide record: Health() without the rows.
  ServeStats stats() const;

  /// Every shard's stats() row with its cycles_waited, and their fold. Takes
  /// no service lock, so it never waits behind an in-flight cycle; the
  /// scheduler fields (cycles, cycles_waited) are read from mirrors the last
  /// completed cycle wrote.
  ShardedServiceHealth Health() const;

  /// Writes the sharded checkpoint: one crash-safe file per shard, manifest
  /// last (see the format comment above). Queued events are folded into each
  /// shard's history first, so nothing is lost across a restart.
  Status SaveToFiles(const std::string& base_path) DBAUGUR_EXCLUDES(cycle_mu_);

  /// Restores a SaveToFiles checkpoint. All-or-nothing: every file is parsed
  /// and validated before any shard is mutated; on failure every shard keeps
  /// serving what it served before. A checkpoint written with a different
  /// shard_count is migrated by re-hashing (see above); `migrated`
  /// (optional) reports whether that happened.
  Status LoadFromFiles(const std::string& base_path, bool* migrated = nullptr)
      DBAUGUR_EXCLUDES(cycle_mu_);

  static std::string ManifestPath(const std::string& base_path) {
    return base_path + ".manifest";
  }
  static std::string ShardPath(const std::string& base_path, size_t shard_id) {
    return base_path + ".shard" + std::to_string(shard_id);
  }

 private:
  void SchedulerLoop() DBAUGUR_EXCLUDES(cycle_mu_, stop_mu_);
  /// One scheduled shard's task: arms the shard's deadline token (none
  /// without a deadline) and retrains it on the fit pool.
  Status RetrainShard(size_t shard_id);

  ShardedServeOptions opts_;
  /// Immutable after construction (the vector and the shard objects' *
  /// identities; the shards synchronize internally).
  std::vector<std::unique_ptr<ServiceShard>> shards_;
  /// Drains each cycle's schedule: retrain_workers lanes, the thread
  /// running the cycle being one. Used only under cycle_mu_.
  ThreadPool shard_pool_;
  /// clustering.threads lanes shared by every concurrent shard retrain's
  /// Descender sweep and member fits.
  ThreadPool fit_pool_;

  /// Serializes scheduler cycles and checkpoint restore. Retrain work runs
  /// *under* this lock (on the shard pool's lanes); readers never take it.
  mutable Mutex cycle_mu_;
  /// Written only under cycle_mu_ (by each cycle and by restore), read
  /// lock-free by Health(): completed cycles and the cycles each shard has
  /// waited since its last retrain.
  std::atomic<uint64_t> cycles_done_{0};
  std::vector<std::atomic<uint64_t>> cycles_waited_;

  /// Serializes Start/Stop/dtor: worker_ is not a thread-safe object, so
  /// racing Start/Stop calls must not touch it unsynchronized.
  Mutex lifecycle_mu_;
  std::thread worker_ DBAUGUR_GUARDED_BY(lifecycle_mu_);

  Mutex stop_mu_;  ///< Guards stopping_, paired with stop_cv_.
  CondVar stop_cv_;
  bool stopping_ DBAUGUR_GUARDED_BY(stop_mu_) = false;
  std::atomic<bool> running_{false};
};

}  // namespace dbaugur::serve
