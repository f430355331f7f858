#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/contracts.h"
#include "common/logging.h"

namespace dbaugur::serve {

namespace {
uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ServiceShard::ServiceShard(const ServeOptions& opts, size_t shard_id)
    : opts_(opts),
      shard_id_(shard_id),
      ingestor_(IngestorOptions{opts.queue_capacity, opts.max_templates,
                                opts.max_lateness_seconds,
                                opts.min_timestamp_seconds,
                                opts.max_timestamp_seconds}),
      retrainer_(opts.pipeline,
                 RetrainerOptions{opts.bin_interval_seconds, opts.min_bins,
                                  opts.seed, opts.winsorize_k,
                                  opts.divergence_multiple}) {
  DBAUGUR_CHECK(opts_.queue_capacity >= 1,
                "ServiceShard queue_capacity must be >= 1");
  DBAUGUR_CHECK(opts_.bin_interval_seconds > 0,
                "ServiceShard bin_interval_seconds must be positive");
  // Readers never see a null snapshot: generation 0 is "nothing trained yet".
  Publish(std::make_shared<const ServiceSnapshot>(), 0);
}

void ServiceShard::Publish(std::shared_ptr<const ServiceSnapshot> snap,
                           uint64_t gen) {
  // The old snapshot's refcount drop (and possible destruction) happens on
  // this thread after the lock is released, never on a reader.
  std::shared_ptr<const ServiceSnapshot> retired;
  {
    MutexLock lock(&snapshot_mu_);
    retired = std::exchange(snapshot_ptr_, std::move(snap));
  }
  generation_.store(gen, std::memory_order_release);
  last_publish_stamp_.store(NowNanos(), std::memory_order_relaxed);
  // A fresh publish supersedes any cancelled cycle: the shard is no
  // longer serving stale state, so drop the marker and its reason.
  if (degraded_stale_.load(std::memory_order_relaxed)) {
    {
      MutexLock lock(&error_mu_);
      stale_reason_.clear();
    }
    degraded_stale_.store(false, std::memory_order_release);
  }
}

void ServiceShard::RecordFailure(const Status& st) {
  retrains_failed_.fetch_add(1, std::memory_order_relaxed);
  consecutive_failures_.fetch_add(1, std::memory_order_relaxed);
  last_error_stamp_.store(NowNanos(), std::memory_order_relaxed);
  {
    MutexLock lock(&error_mu_);
    // retrainer_ access is legal here: DBAUGUR_REQUIRES(retrain_mu_).
    last_error_ = st.message();
    last_error_cycles_ = retrainer_.cycles();
    last_error_generation_ = generation_.load(std::memory_order_acquire);
  }
  // The single log line for this failure: the backoff machinery stays silent,
  // so a persistent fault produces one record per attempt, not one per tick.
  DBAUGUR_WARN("serve: shard " << shard_id_
                               << " retrain cycle failed: " << st.message());
}

Status ServiceShard::RetrainOnce(ThreadPool* fit_pool,
                                 const CancelToken* cancel) {
  uint64_t t0 = NowNanos();
  MutexLock lock(&retrain_mu_);
  // Drain + fold before any cancellation checkpoint: even a cycle the
  // deadline kills instantly moves its queued events into the binner, so
  // cancellation never loses data — the next successful cycle trains on them.
  // This attempt uses everything folded so far, so the traffic signal
  // restarts from zero whatever its outcome.
  FoldQueuedLocked();
  folded_since_retrain_.store(0, std::memory_order_relaxed);
  uint64_t next_gen = generation_.load(std::memory_order_relaxed) + 1;
  auto last_good = snapshot();
  auto snap = retrainer_.Rebuild(next_gen, last_good.get(), fit_pool, cancel);
  values_winsorized_.store(retrainer_.values_winsorized(),
                           std::memory_order_relaxed);
  // The "retrain lag" a scheduler cares about: how long drained events take
  // to reach the published snapshot. Recorded for every attempted cycle —
  // skips and failures included — so staleness math never reads a stale 0.
  auto record_duration = [&] {
    last_retrain_nanos_.store(NowNanos() - t0, std::memory_order_relaxed);
  };
  if (!snap.ok()) {
    RecordFailure(snap.status());
    if (snap.status().code() == StatusCode::kCancelled) {
      // Cancellation is a failure (it feeds the backoff streak above) plus a
      // staleness marker: the shard keeps serving last-good, and Health()
      // surfaces why until the next successful publish clears it.
      retrains_cancelled_.fetch_add(1, std::memory_order_relaxed);
      {
        MutexLock elock(&error_mu_);
        stale_reason_ = snap.status().message();
      }
      degraded_stale_.store(true, std::memory_order_release);
    }
    record_duration();
    return snap.status();
  }
  consecutive_failures_.store(0, std::memory_order_relaxed);
  if (*snap == nullptr) {
    retrains_skipped_.fetch_add(1, std::memory_order_relaxed);
    record_duration();
    return Status::OK();
  }
  Publish(std::move(snap).value(), next_gen);
  retrains_completed_.fetch_add(1, std::memory_order_relaxed);
  record_duration();
  return Status::OK();
}

void ServiceShard::FoldQueuedLocked() {
  std::vector<TraceEvent> events;
  ingestor_.Drain(&events);
  retrainer_.Fold(events);
  folded_since_retrain_.store(
      folded_since_retrain_.load(std::memory_order_relaxed) + events.size(),
      std::memory_order_relaxed);
}

void ServiceShard::FoldQueued() {
  MutexLock lock(&retrain_mu_);
  FoldQueuedLocked();
}

double ServiceShard::last_retrain_seconds() const {
  return static_cast<double>(
             last_retrain_nanos_.load(std::memory_order_relaxed)) *
         1e-9;
}

ServeStats ServiceShard::stats() const {
  // Seconds since a steady-clock stamp (`if_unset` before the first one).
  const uint64_t now = NowNanos();
  auto age = [now](const std::atomic<uint64_t>& stamp, double if_unset) {
    const uint64_t t = stamp.load(std::memory_order_relaxed);
    if (t == 0) return if_unset;
    return now > t ? static_cast<double>(now - t) * 1e-9 : 0.0;
  };
  ServeStats s;
  s.shard_id = shard_id_;
  const auto snap = snapshot();
  s.generation = snap->generation;
  s.cluster_count = snap->cluster_count();
  s.degraded_clusters = snap->degraded_count();
  s.queue_depth = ingestor_.size();
  s.events_accepted = ingestor_.accepted();
  s.drops = ingestor_.drop_stats();
  s.events_dropped = s.drops.total();
  s.values_winsorized = values_winsorized_.load(std::memory_order_relaxed);
  s.retrains_completed = retrains_completed_.load(std::memory_order_relaxed);
  s.retrains_skipped = retrains_skipped_.load(std::memory_order_relaxed);
  s.retrains_failed = retrains_failed_.load(std::memory_order_relaxed);
  s.retrains_cancelled = retrains_cancelled_.load(std::memory_order_relaxed);
  s.consecutive_failures = consecutive_failures();
  s.degraded_stale = degraded_stale();
  s.last_retrain_seconds = last_retrain_seconds();
  s.staleness_seconds = age(last_publish_stamp_, 0.0);
  s.last_error_age_seconds = age(last_error_stamp_, -1.0);
  {
    MutexLock lock(&error_mu_);
    if (s.degraded_stale) s.stale_reason = stale_reason_;
    s.last_error = last_error_;
    s.last_error_cycles = last_error_cycles_;
    s.last_error_generation = last_error_generation_;
  }
  if (s.consecutive_failures > 0) {
    s.state = HealthState::kBackoff;
  } else if (s.degraded_clusters > 0) {
    s.state = HealthState::kDegraded;
  } else if (snap->trained()) {
    s.state = HealthState::kHealthy;
  }
  return s;
}

void ServeStats::Fold(const ServeStats& row) {
  state = std::max(state, row.state);
  generation = std::max(generation, row.generation);
  cluster_count += row.cluster_count;
  degraded_clusters += row.degraded_clusters;
  queue_depth += row.queue_depth;
  events_accepted += row.events_accepted;
  drops += row.drops;
  events_dropped += row.events_dropped;
  values_winsorized += row.values_winsorized;
  retrains_completed += row.retrains_completed;
  retrains_skipped += row.retrains_skipped;
  retrains_failed += row.retrains_failed;
  retrains_cancelled += row.retrains_cancelled;
  consecutive_failures =
      std::max(consecutive_failures, row.consecutive_failures);
  if (row.degraded_stale && !degraded_stale) {
    degraded_stale = true;
    stale_reason = row.stale_reason;
  }
  last_retrain_seconds =
      std::max(last_retrain_seconds, row.last_retrain_seconds);
  staleness_seconds = std::max(staleness_seconds, row.staleness_seconds);
  cycles_waited = std::max(cycles_waited, row.cycles_waited);
  if (!row.last_error.empty() &&
      (last_error.empty() ||
       row.last_error_generation > last_error_generation)) {
    last_error = row.last_error;
    last_error_cycles = row.last_error_cycles;
    last_error_generation = row.last_error_generation;
    last_error_age_seconds = row.last_error_age_seconds;
  }
}

Status ServiceShard::SaveStateSection(BufWriter* w) {
  MutexLock lock(&retrain_mu_);
  // Fold queued events first so in-flight ingest survives the restart. A
  // restored shard starts with no folded-but-untrained events, so the
  // signal restarts here too: both then schedule alike.
  FoldQueuedLocked();
  folded_since_retrain_.store(0, std::memory_order_relaxed);

  w->U64(generation_.load(std::memory_order_acquire));
  BufWriter rw;
  rw.U64(retrainer_.cycles());
  retrainer_.binner().Save(&rw);
  w->Bytes(rw.Take());
  auto snap = snapshot();
  w->U8(snap->trained() ? 1 : 0);
  if (snap->trained()) {
    BufWriter sw;
    DBAUGUR_RETURN_IF_ERROR(SerializeSnapshot(*snap, &sw));
    w->Bytes(sw.Take());
  }
  return Status::OK();
}

StatusOr<ServiceShard::ParsedState> ServiceShard::ParseStateSection(
    BufReader* r) const {
  auto corrupt = [] {
    return Status::InvalidArgument(
        "serve: truncated or corrupt shard state section");
  };
  ParsedState out;
  std::vector<uint8_t> retr_bytes;
  uint8_t trained = 0;
  if (!r->U64(&out.generation) || !r->Bytes(&retr_bytes) || !r->U8(&trained)) {
    return corrupt();
  }
  if (trained > 1) return corrupt();

  BufReader rr(retr_bytes);
  if (!rr.U64(&out.cycles)) return corrupt();
  TraceBinner binner(opts_.bin_interval_seconds);
  DBAUGUR_RETURN_IF_ERROR(binner.Load(&rr));
  if (!rr.AtEnd()) return corrupt();
  if (binner.interval_seconds() != opts_.bin_interval_seconds) {
    return Status::InvalidArgument(
        "Retrainer: saved bin interval does not match service options");
  }
  out.binner = std::move(binner);

  if (trained == 1) {
    std::vector<uint8_t> snap_bytes;
    if (!r->Bytes(&snap_bytes)) return corrupt();
    BufReader sr(snap_bytes);
    auto restored = DeserializeSnapshot(opts_.pipeline, &sr);
    if (!restored.ok()) return restored.status();
    if (!sr.AtEnd()) return corrupt();
    out.snapshot = std::move(restored).value();
    if (out.snapshot->generation != out.generation) {
      return Status::InvalidArgument(
          "serve: snapshot generation does not match service header");
    }
  } else {
    auto empty = std::make_shared<ServiceSnapshot>();
    empty->generation = out.generation;
    out.snapshot = empty;
  }
  return out;
}

void ServiceShard::InstallParsedState(ParsedState state) {
  // Apply under the retrain lock so an in-flight retrain cycle can't
  // interleave with the swap.
  MutexLock lock(&retrain_mu_);
  retrainer_.InstallState(std::move(state.binner), state.cycles);
  folded_since_retrain_.store(0, std::memory_order_relaxed);
  Publish(std::move(state.snapshot), state.generation);
}

std::map<uint32_t, std::map<int64_t, double>> ServiceShard::BinContents() {
  MutexLock lock(&retrain_mu_);
  return retrainer_.binner().bins();
}

}  // namespace dbaugur::serve
