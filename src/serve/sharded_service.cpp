#include "serve/sharded_service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "common/binio.h"
#include "common/cancellation.h"
#include "common/contracts.h"
#include "common/logging.h"
#include "serve/retrain_scheduler.h"

namespace dbaugur::serve {

namespace {
constexpr uint32_t kShardFileMagic = 0xDBA65EF7;
constexpr uint32_t kManifestMagic = 0xDBA65EF8;
constexpr uint32_t kShardedVersion = 1;

// Checked before the members are built, so a bad option aborts with its own
// message rather than a thread pool's.
const ShardedServeOptions& Validated(const ShardedServeOptions& opts) {
  DBAUGUR_CHECK(opts.shard_count >= 1,
                "ShardedForecastService shard_count must be >= 1");
  DBAUGUR_CHECK(opts.retrain_workers >= 1,
                "ShardedForecastService retrain_workers must be >= 1");
  DBAUGUR_CHECK(opts.shard.retrain_interval_seconds > 0,
                "ShardedForecastService retrain_interval_seconds must be "
                "positive");
  return opts;
}
}  // namespace

ShardedForecastService::ShardedForecastService(const ShardedServeOptions& opts)
    : opts_(Validated(opts)),
      shard_pool_(opts.retrain_workers),
      fit_pool_(opts.shard.pipeline.clustering.threads),
      cycles_waited_(opts.shard_count) {
  shards_.reserve(opts_.shard_count);
  for (size_t i = 0; i < opts_.shard_count; ++i) {
    shards_.push_back(std::make_unique<ServiceShard>(opts_.shard, i));
  }
}

ShardedForecastService::~ShardedForecastService() { Stop(); }

std::vector<size_t> ShardedForecastService::RetrainCycle() {
  std::vector<size_t> order;
  std::string cycle_line;
  {
    MutexLock lock(&cycle_mu_);
    std::vector<ShardSignal> signals;
    signals.reserve(shards_.size());
    uint64_t total_pending = 0;
    uint64_t max_wait = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      ShardSignal s;
      s.shard_id = i;
      s.pending_events = shards_[i]->pending_events();
      // A cancelled retrain counts as an attempt, which restarts the signal,
      // so a degraded-stale shard still owes the scheduler a retrain even
      // when no new traffic arrives — otherwise the work-conserving skip
      // would pin it on its last-good snapshot forever.
      if (s.pending_events == 0 && shards_[i]->degraded_stale()) {
        s.pending_events = 1;
      }
      s.cycles_waited = cycles_waited_[i].load(std::memory_order_relaxed);
      s.consecutive_failures = shards_[i]->consecutive_failures();
      total_pending += s.pending_events;
      if (s.pending_events > 0) max_wait = std::max(max_wait, s.cycles_waited);
      signals.push_back(s);
    }
    order = ScheduleRetrains(signals, opts_.retrain_budget);

    // Shards are claimed in schedule order, so the priority order holds at
    // any worker count; shards share no mutable state, so concurrent
    // RetrainOnce calls are independent. A retrain that overruns its
    // deadline is cancelled at its next checkpoint and recorded shard-side
    // as a cancelled failure (degraded-stale + backoff).
    std::vector<Status> outcomes(order.size());
    shard_pool_.ParallelFor(order.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) outcomes[i] = RetrainShard(order[i]);
    });

    // Every shard this cycle did not retrain waited one cycle longer, and
    // has its queue folded now: the retrains have returned, so no lane holds
    // its retrain_mu_. The budget and the backoff ration retrains, never
    // events: a queue overflows only when one cycle's traffic does.
    std::vector<char> retrained(shards_.size(), 0);
    for (size_t id : order) retrained[id] = 1;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!retrained[i]) shards_[i]->FoldQueued();
      const uint64_t waited = cycles_waited_[i].load(std::memory_order_relaxed);
      cycles_waited_[i].store(retrained[i] ? 0 : waited + 1,
                              std::memory_order_relaxed);
    }
    const uint64_t cycle = cycles_done_.load(std::memory_order_relaxed) + 1;
    cycles_done_.store(cycle, std::memory_order_release);

    if (!order.empty()) {
      // One line per productive cycle (idle ticks stay silent), carrying the
      // scheduler and cancellation telemetry. Built into a local buffer here
      // and emitted after cycle_mu_ is released — no lock is held while the
      // logging backend runs.
      size_t cancelled = 0;
      const Status* first_cancelled = nullptr;
      for (const Status& st : outcomes) {
        if (st.code() != StatusCode::kCancelled) continue;
        if (cancelled++ == 0) first_cancelled = &st;
      }
      std::ostringstream line;
      line << "serve: cycle " << cycle << " retrained "
           << order.size() - cancelled << "/" << order.size()
           << " scheduled (" << shards_.size() << " shards) [";
      size_t shown = std::min<size_t>(order.size(), 8);
      for (size_t i = 0; i < shown; ++i) {
        if (i > 0) line << ' ';
        line << order[i];
      }
      if (order.size() > shown) line << " ...";
      line << "] pending=" << total_pending << " max_wait=" << max_wait;
      if (first_cancelled != nullptr) {
        // One example reason is enough for the log.
        line << " cancelled=" << cancelled << " ["
             << first_cancelled->message() << "]";
      }
      cycle_line = line.str();
    }
  }
  if (!cycle_line.empty()) DBAUGUR_INFO(cycle_line);
  return order;
}

Status ShardedForecastService::RetrainShard(size_t shard_id) {
  const double deadline = opts_.retrain_deadline_seconds;
  if (!(deadline > 0.0)) return shards_[shard_id]->RetrainOnce(&fit_pool_);
  std::ostringstream reason;
  reason << "watchdog: shard " << shard_id << " retrain exceeded its "
         << deadline << "s deadline";
  CancelToken token(
      std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(deadline)),
      reason.str());
  return shards_[shard_id]->RetrainOnce(&fit_pool_, &token);
}

void ShardedForecastService::Start() {
  MutexLock lifecycle(&lifecycle_mu_);
  if (worker_.joinable()) return;
  {
    MutexLock lock(&stop_mu_);
    stopping_ = false;
  }
  running_.store(true, std::memory_order_release);
  worker_ = std::thread([this] { SchedulerLoop(); });
}

void ShardedForecastService::Stop() {
  MutexLock lifecycle(&lifecycle_mu_);
  {
    MutexLock lock(&stop_mu_);
    stopping_ = true;
  }
  stop_cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
  worker_ = std::thread();
  running_.store(false, std::memory_order_release);
}

void ShardedForecastService::SchedulerLoop() {
  for (;;) {
    {
      MutexLock lock(&stop_mu_);
      if (stopping_) return;
    }
    (void)RetrainCycle();
    // Per-shard failure backoff is in scheduler cycles (see
    // retrain_scheduler.h), so the loop ticks at a constant period. Every
    // cycle folds every queue, so a queue must hold one period's traffic.
    auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                opts_.shard.retrain_interval_seconds));
    // Explicit predicate loop (not a wait_for lambda): the thread-safety
    // analysis checks lambda bodies as unannotated functions, so a predicate
    // reading the guarded stopping_ flag would be rejected.
    MutexLock lock(&stop_mu_);
    while (!stopping_) {
      if (stop_cv_.WaitUntil(&stop_mu_, deadline)) break;  // timed out
    }
    if (stopping_) return;
  }
}

ServeStats ShardedForecastService::stats() const { return Health(); }

ShardedServiceHealth ShardedForecastService::Health() const {
  ShardedServiceHealth h;
  h.cycles = cycles_done_.load(std::memory_order_acquire);
  h.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ServeStats row = shards_[i]->stats();
    row.cycles_waited = cycles_waited_[i].load(std::memory_order_relaxed);
    h.Fold(row);
    if (row.degraded_stale) ++h.stale_shards;
    h.shards.push_back(std::move(row));
  }
  return h;
}

Status ShardedForecastService::SaveToFiles(const std::string& base_path) {
  // Hold cycle_mu_ so a concurrent scheduler cycle cannot retrain a shard
  // between its section being written and the manifest commit.
  MutexLock lock(&cycle_mu_);
  for (size_t i = 0; i < shards_.size(); ++i) {
    BufWriter w;
    w.U32(kShardFileMagic);
    w.U32(kShardedVersion);
    w.U64(static_cast<uint64_t>(shards_.size()));
    w.U64(static_cast<uint64_t>(i));
    DBAUGUR_RETURN_IF_ERROR(shards_[i]->SaveStateSection(&w));
    DBAUGUR_RETURN_IF_ERROR(
        ::dbaugur::SaveToFile(ShardPath(base_path, i), w.Take()));
  }
  // Manifest last: its shard_count tells the loader how many shard files the
  // checkpoint spans.
  BufWriter m;
  m.U32(kManifestMagic);
  m.U32(kShardedVersion);
  m.U64(static_cast<uint64_t>(shards_.size()));
  m.U64(static_cast<uint64_t>(opts_.shard.bin_interval_seconds));
  m.U64(opts_.shard.seed);
  return ::dbaugur::SaveToFile(ManifestPath(base_path), m.Take());
}

Status ShardedForecastService::LoadFromFiles(const std::string& base_path,
                                             bool* migrated) {
  auto corrupt = [] {
    return Status::InvalidArgument(
        "serve: truncated or corrupt sharded checkpoint");
  };
  // --- Phase 1: parse and validate everything; touch no shard state. ------
  auto manifest = ::dbaugur::LoadFromFile(ManifestPath(base_path));
  if (!manifest.ok()) return manifest.status();
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t saved_count = 0;
  uint64_t saved_interval = 0;
  uint64_t saved_seed = 0;
  {
    BufReader r(manifest->blob);
    if (!r.U32(&magic) || !r.U32(&version) || !r.U64(&saved_count) ||
        !r.U64(&saved_interval) || !r.U64(&saved_seed) || !r.AtEnd()) {
      return corrupt();
    }
  }
  if (magic != kManifestMagic) {
    return Status::InvalidArgument("serve: bad sharded manifest magic");
  }
  if (version != kShardedVersion) {
    return Status::InvalidArgument(
        "serve: unsupported sharded checkpoint version");
  }
  if (saved_count == 0) return corrupt();
  if (saved_interval !=
      static_cast<uint64_t>(opts_.shard.bin_interval_seconds)) {
    return Status::InvalidArgument(
        "serve: checkpoint bin interval does not match service options");
  }
  if (saved_seed != opts_.shard.seed) {
    return Status::InvalidArgument(
        "serve: checkpoint seed does not match service options (seed-stream "
        "replay would diverge)");
  }

  // One shard file: its header must name this checkpoint, and the state
  // section must fill the rest exactly. All shards share one option set, so
  // shard 0 can validate any section.
  auto parse_shard_file = [&](const std::vector<uint8_t>& blob, uint64_t id)
      -> StatusOr<ServiceShard::ParsedState> {
    BufReader r(blob);
    uint32_t file_magic = 0;
    uint32_t file_version = 0;
    uint64_t file_count = 0;
    uint64_t file_id = 0;
    if (!r.U32(&file_magic) || !r.U32(&file_version) ||
        !r.U64(&file_count) || !r.U64(&file_id)) {
      return corrupt();
    }
    if (file_magic != kShardFileMagic) {
      return Status::InvalidArgument("serve: bad shard file magic");
    }
    if (file_version != kShardedVersion || file_count != saved_count ||
        file_id != id) {
      return Status::InvalidArgument(
          "serve: shard file does not match checkpoint manifest");
    }
    auto state = shards_[0]->ParseStateSection(&r);
    if (state.ok() && !r.AtEnd()) return corrupt();
    return state;
  };
  // Not reserved by saved_count: the manifest is untrusted input, and a
  // count with no shard files behind it fails at the first missing one.
  std::vector<ServiceShard::ParsedState> parsed;
  for (uint64_t i = 0; i < saved_count; ++i) {
    const std::string path = ShardPath(base_path, i);
    auto file = ::dbaugur::LoadFromFile(path);
    if (!file.ok()) return file.status();
    auto state = parse_shard_file(file->blob, i);
    // The primary passed its checksum but failed validation; the previous
    // good file may still restore cleanly.
    if (!state.ok() && !file->recovered_from_backup) {
      auto bak = ::dbaugur::LoadFromFile(path + ".bak");
      if (bak.ok()) {
        auto from_bak = parse_shard_file(bak->blob, i);
        if (from_bak.ok()) state = std::move(from_bak);
      }
    }
    if (!state.ok()) return state.status();
    parsed.push_back(std::move(state).value());
  }

  // --- Phase 2: install (same layout) or migrate by re-hashing. -----------
  MutexLock lock(&cycle_mu_);
  if (saved_count == shards_.size()) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->InstallParsedState(std::move(parsed[i]));
    }
    if (migrated != nullptr) *migrated = false;
  } else {
    // Re-partition the binned history into the new layout. Every template id
    // re-hashes to exactly one new shard, so no keys are lost or duplicated
    // (set equality pinned by test). A migrated shard's seed-stream position
    // is the max over its contributors; published snapshots cannot be
    // re-keyed across shard boundaries, so shards restart untrained at
    // generation 0 and the first retrain rebuilds them.
    std::vector<TraceBinner> binners(
        shards_.size(), TraceBinner(opts_.shard.bin_interval_seconds));
    std::vector<uint64_t> cycles(shards_.size(), 0);
    for (const ServiceShard::ParsedState& old : parsed) {
      for (const auto& [template_id, bins] : old.binner.bins()) {
        size_t target = ShardOfKey(template_id, shards_.size());
        for (const auto& [bin, count] : bins) {
          binners[target].FoldBin(template_id, bin, count);
        }
        cycles[target] = std::max(cycles[target], old.cycles);
      }
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      ServiceShard::ParsedState fresh;
      fresh.generation = 0;
      fresh.cycles = cycles[i];
      fresh.binner = std::move(binners[i]);
      fresh.snapshot = std::make_shared<const ServiceSnapshot>();
      shards_[i]->InstallParsedState(std::move(fresh));
    }
    DBAUGUR_INFO("serve: migrated sharded checkpoint from "
                 << saved_count << " to " << shards_.size() << " shards");
    if (migrated != nullptr) *migrated = true;
  }
  // Restored shards start with a clean scheduling slate.
  for (auto& waited : cycles_waited_) {
    waited.store(0, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace dbaugur::serve
