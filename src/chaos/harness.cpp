#include "chaos/harness.h"

#include <stdlib.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "chaos/oracle.h"
#include "cluster/descender.h"
#include "common/fault_injection.h"
#include "dbsim/bustracker_db.h"
#include "dbsim/query.h"
#include "dbsim/replay.h"
#include "migrate/load_balancer.h"
#include "serve/sharded_service.h"
#include "trace/extractor.h"

namespace dbaugur::chaos {

namespace {
// Production ingest settings of the events and service legs, mirrored into
// the sequential reference.
constexpr serve::IngestorOptions kIngest{
    /*capacity=*/size_t{1} << 15, /*max_templates=*/512,
    /*max_lateness_seconds=*/6 * 3600, /*min_timestamp_seconds=*/0,
    /*max_timestamp_seconds=*/4102444800};
}  // namespace

size_t MinimizeFailingPrefix(size_t n,
                             const std::function<bool(size_t)>& fails_at) {
  if (n == 0) return 0;
  size_t lo = 1;
  size_t hi = n;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (fails_at(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // The bisection assumed a failing prefix stays failing as it grows. Verify
  // the boundary it found; a non-monotone predicate (possible when a fault
  // storm moves with the number of production calls) falls back to the first
  // failing prefix by linear scan.
  if (fails_at(lo) && (lo == 1 || !fails_at(lo - 1))) return lo;
  for (size_t i = 1; i <= n; ++i) {
    if (fails_at(i)) return i;
  }
  return n;
}

std::string FormatEventWindow(const std::vector<serve::TraceEvent>& events,
                              size_t end, size_t max_window) {
  if (end > events.size()) end = events.size();
  const size_t begin = end > max_window ? end - max_window : 0;
  std::string out = "  event window [" + std::to_string(begin) + ", " +
                    std::to_string(end) + ") of " +
                    std::to_string(events.size()) + ":";
  for (size_t i = begin; i < end; ++i) {
    const serve::TraceEvent& e = events[i];
    out += "\n    #" + std::to_string(i) +
           " template=" + std::to_string(e.template_id) +
           " ts=" + std::to_string(e.timestamp) +
           " count=" + std::to_string(e.count);
  }
  return out;
}

std::string ChaosReport::Summary() const {
  if (ok) return "chaos ok (" + repro + ")";
  std::string out = "chaos FAILURE [stage " + stage + "] " + failure;
  out += "\n  repro: " + repro;
  if (!window.empty()) {
    out += "\n";
    out += window;
  }
  return out;
}

namespace {

Status Fail(const std::string& what) { return Status::Internal(what); }

/// A private directory under the system temp dir (mkdtemp: parallel runs
/// never share one), removed with its contents on destruction. path() is
/// empty if it could not be created.
class CheckpointDir {
 public:
  CheckpointDir() {
    std::error_code ec;
    const std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) return;
    std::string tmpl = (tmp / "dbaugur_chaos_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) != nullptr) path_ = tmpl;
  }
  ~CheckpointDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  CheckpointDir(const CheckpointDir&) = delete;
  CheckpointDir& operator=(const CheckpointDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// One chaos run; stages share state through the members below.
class ChaosRun {
 public:
  explicit ChaosRun(const ChaosOptions& opts) : opts_(opts) {}

  ChaosReport Run() {
    report_.repro = "--seed=" + std::to_string(opts_.stream.seed) +
                    " --profile=" + ProfileName(opts_.stream.profile);
    if (opts_.replay) report_.repro += " --replay";
    if (opts_.service_shards > 0) {
      report_.repro += " --shards=" + std::to_string(opts_.service_shards);
    }
    if (opts_.service_workers > 1) {
      report_.repro += " --workers=" + std::to_string(opts_.service_workers);
    }
    if (opts_.retrain_deadline_seconds > 0.0) {
      report_.repro +=
          " --deadline=" + std::to_string(opts_.retrain_deadline_seconds);
    }
    if (opts_.retrain_budget > 0) {
      report_.repro += " --budget=" + std::to_string(opts_.retrain_budget);
    }

    stream_ = GenerateStream(opts_.stream);
    if (!Stage("text", TextLeg())) return report_;
    if (!Stage("template", TemplateLeg())) return report_;
    if (!Stage("events", EventsLeg())) return report_;
    if (!Stage("cluster", ClusterLeg())) return report_;
    if (opts_.service_shards > 0 && !Stage("sharded", ShardedLeg())) {
      return report_;
    }
    if (opts_.replay && !Stage("replay", ReplayLeg())) return report_;
    if (!Stage("migrate", MigrateLeg())) return report_;
    return report_;
  }

 private:
  bool Stage(const char* name, const Status& st) {
    if (st.ok()) return true;
    report_.ok = false;
    report_.stage = name;
    report_.failure = st.message();
    return false;
  }

  // ---- text: raw log lines through the lenient + strict log parsers -------

  Status TextLeg() {
    parsed_ = trace::ParseQueryLogLenient(stream_.Text());
    const StreamGroundTruth& t = stream_.truth;
    if (parsed_.rejected.no_sql != t.malformed_no_sql) {
      return Fail("log parser rejected " +
                  std::to_string(parsed_.rejected.no_sql) +
                  " no-SQL lines, stream injected " +
                  std::to_string(t.malformed_no_sql));
    }
    if (parsed_.rejected.bad_timestamp != t.malformed_bad_timestamp) {
      return Fail("log parser rejected " +
                  std::to_string(parsed_.rejected.bad_timestamp) +
                  " bad-timestamp lines, stream injected " +
                  std::to_string(t.malformed_bad_timestamp));
    }
    const uint64_t want_entries = t.well_formed + t.bad_statements;
    if (parsed_.entries.size() != want_entries) {
      return Fail("log parser kept " + std::to_string(parsed_.entries.size()) +
                  " entries, stream emitted " + std::to_string(want_entries) +
                  " parseable lines");
    }
    if (parsed_.rejected.total() > 0 &&
        (parsed_.first_bad_line == 0 || parsed_.first_error.empty())) {
      return Fail("lines were rejected but first-error diagnostics are empty");
    }
    // Strict/lenient differential: the strict parser fails iff the lenient
    // one rejected anything.
    auto strict = trace::ParseQueryLog(stream_.Text());
    if (strict.ok() != (parsed_.rejected.total() == 0)) {
      return Fail(std::string("strict parse ") +
                  (strict.ok() ? "succeeded" : "failed") + " but lenient saw " +
                  std::to_string(parsed_.rejected.total()) + " rejections");
    }
    return Status::OK();
  }

  // ---- template: SQL2Template counts against ground truth -----------------

  Status TemplateLeg() {
    trace::ExtractionOptions xopts;
    xopts.interval_seconds = opts_.stream.interval_seconds;
    trace::TraceExtractor ex(xopts);
    for (const trace::LogEntry& e : parsed_.entries) ex.IngestLenient(e);
    const StreamGroundTruth& t = stream_.truth;
    if (ex.rejected_statements() != t.bad_statements) {
      return Fail("templater rejected " +
                  std::to_string(ex.rejected_statements()) +
                  " statements, stream injected " +
                  std::to_string(t.bad_statements));
    }
    if (ex.entry_count() != t.well_formed) {
      return Fail("templater ingested " + std::to_string(ex.entry_count()) +
                  " statements, stream emitted " +
                  std::to_string(t.well_formed));
    }
    // Aggregate by canonical template text on both sides so two grammar
    // slots canonicalizing to the same template stay comparable.
    std::map<std::string, int64_t> got;
    const sql::TemplateRegistry& reg = ex.registry();
    for (size_t id = 0; id < reg.size(); ++id) {
      got[reg.template_text(id)] += reg.count(id);
    }
    std::map<std::string, int64_t> want;
    for (size_t s = 0; s < t.template_text.size(); ++s) {
      if (t.template_counts[s] > 0) {
        want[t.template_text[s]] +=
            static_cast<int64_t>(t.template_counts[s]);
      }
    }
    if (got != want) {
      for (const auto& [tmpl, n] : want) {
        auto it = got.find(tmpl);
        if (it == got.end()) {
          return Fail("template never registered: \"" + tmpl + "\" (expected " +
                      std::to_string(n) + " occurrences)");
        }
        if (it->second != n) {
          return Fail("template \"" + tmpl + "\" counted " +
                      std::to_string(it->second) + " times, stream emitted " +
                      std::to_string(n));
        }
      }
      for (const auto& [tmpl, n] : got) {
        if (want.find(tmpl) == want.end()) {
          return Fail("unexpected template registered: \"" + tmpl + "\" (" +
                      std::to_string(n) + " occurrences)");
        }
      }
    }
    // Replayability cross-check: the catalog's static flag must agree with
    // dbsim's parser on every rendered statement.
    for (const StreamItem& item : stream_.items) {
      if (item.kind != StreamItem::Kind::kQuery) continue;
      const size_t sp = item.line.find(' ');
      const std::string sql = item.line.substr(sp + 1);
      const bool parses = dbsim::ParseQuery(sql).ok();
      if (parses != t.replayable[item.template_index]) {
        return Fail("slot " + std::to_string(item.template_index) +
                    (parses ? " parses under dbsim but is marked"
                              " non-replayable"
                            : " is marked replayable but dbsim rejects it") +
                    ": " + sql);
      }
    }
    return Status::OK();
  }

  // ---- events: production ingest vs the sequential reference -------------

  void RunProduction(size_t n, serve::TraceIngestor* ing,
                     serve::TraceBinner* bin) const {
    std::vector<serve::TraceEvent> drained;
    size_t since_drain = 0;
    for (size_t i = 0; i < n; ++i) {
      ing->Offer(events_[i]);
      if (++since_drain >= 256) {
        since_drain = 0;
        drained.clear();
        ing->Drain(&drained);
        for (const serve::TraceEvent& e : drained) bin->Fold(e);
      }
    }
    drained.clear();
    ing->Drain(&drained);
    for (const serve::TraceEvent& e : drained) bin->Fold(e);
  }

  ReferenceOptions ReferenceIngestOptions() const {
    return ReferenceOptions{kIngest.max_templates, kIngest.max_lateness_seconds,
                            kIngest.min_timestamp_seconds,
                            kIngest.max_timestamp_seconds,
                            opts_.stream.interval_seconds};
  }

  Status EventsLeg() {
    events_.clear();
    for (const StreamItem& item : stream_.items) {
      if (item.has_event) events_.push_back(item.event);
    }
    report_.events = events_.size();
    if (events_.empty()) return Status::OK();

    const ReferenceOptions ropts = ReferenceIngestOptions();
    ing_ = std::make_unique<serve::TraceIngestor>(kIngest);
    bin_ = std::make_unique<serve::TraceBinner>(opts_.stream.interval_seconds);
    RunProduction(events_.size(), ing_.get(), bin_.get());
    const ReferenceResult ref = RunSequentialReference(events_, ropts);

    // Exact differential when no fault storm is armed; conservation always.
    Status diff = fault::Active()
                      ? CheckIngestConservation(events_.size(), *ing_)
                      : CompareIngest(ref, *ing_, *bin_);
    if (!diff.ok()) {
      auto fails_at = [&](size_t n) {
        serve::TraceIngestor ing(kIngest);
        serve::TraceBinner bin(opts_.stream.interval_seconds);
        RunProduction(n, &ing, &bin);
        const std::vector<serve::TraceEvent> prefix(events_.begin(),
                                                    events_.begin() + n);
        const ReferenceResult r = RunSequentialReference(prefix, ropts);
        const Status st = fault::Active() ? CheckIngestConservation(n, ing)
                                          : CompareIngest(r, ing, bin);
        return !st.ok();
      };
      const size_t min_len = MinimizeFailingPrefix(events_.size(), fails_at);
      report_.window = FormatEventWindow(events_, min_len);
      return Fail(diff.message() + " (minimized to the first " +
                  std::to_string(min_len) + " of " +
                  std::to_string(events_.size()) + " events)");
    }
    if (!fault::Active()) {
      // Ground-truth reconciliation: every event the stream injected lands in
      // exactly the category it was built for.
      const StreamGroundTruth& t = stream_.truth;
      if (ref.drops.template_id != t.bad_template_events) {
        return Fail("dropped " + std::to_string(ref.drops.template_id) +
                    " bad-template events, stream injected " +
                    std::to_string(t.bad_template_events));
      }
      if (ref.drops.nonfinite != 0 || ref.drops.negative != 0 ||
          ref.drops.full != 0) {
        return Fail("clean stream hit unexpected drop categories (nonfinite " +
                    std::to_string(ref.drops.nonfinite) + ", negative " +
                    std::to_string(ref.drops.negative) + ", full " +
                    std::to_string(ref.drops.full) + ")");
      }
      const uint64_t skew_outcomes =
          ref.drops.pre_epoch + ref.drops.future + ref.drops.stale;
      if (ref.accepted + skew_outcomes !=
          t.well_formed + t.skewed_events) {
        return Fail("accepted " + std::to_string(ref.accepted) + " + skewed " +
                    std::to_string(skew_outcomes) +
                    " does not reconcile with " +
                    std::to_string(t.well_formed) + " well-formed + " +
                    std::to_string(t.skewed_events) + " skewed events");
      }
    }
    return Status::OK();
  }

  // ---- cluster: sequential AddTrace vs threaded AddTraces batch -----------

  Status ClusterLeg() {
    if (bin_ == nullptr || bin_->template_count() < 2) return Status::OK();
    auto traces = bin_->Traces();
    if (!traces.ok()) {
      return Fail("binner refuses to materialize: " +
                  traces.status().message());
    }
    cluster::DescenderOptions dopts;
    dopts.radius = 6.0;
    dopts.min_size = 2;
    dopts.dtw.window = 4;
    dopts.threads = 1;
    cluster::Descender seq(dopts);
    for (const ts::Series& tr : *traces) {
      auto added = seq.AddTrace(tr);
      if (!added.ok()) {
        return Fail("sequential AddTrace failed: " + added.status().message());
      }
    }
    dopts.threads = 2;
    cluster::Descender batch(dopts);
    Status st = batch.AddTraces(*traces);
    if (!st.ok()) return Fail("batch AddTraces failed: " + st.message());

    const size_t n = traces->size();
    for (size_t i = 0; i < n; ++i) {
      if (seq.is_core(i) != batch.is_core(i)) {
        return Fail("core flag diverges at trace " + std::to_string(i) +
                    ": sequential " + std::to_string(seq.is_core(i)) +
                    ", batch " + std::to_string(batch.is_core(i)));
      }
    }
    // AddTraces documents label identity with the AddTrace loop.
    for (size_t i = 0; i < n; ++i) {
      if (seq.label(i) != batch.label(i)) {
        return Fail("label diverges at trace " + std::to_string(i) +
                    ": sequential " + std::to_string(seq.label(i)) +
                    ", batch " + std::to_string(batch.label(i)));
      }
    }
    return Status::OK();
  }

  // ---- sharded: ShardedForecastService, save → load → resume --------------

  serve::ServeOptions MakeServeOptions() const {
    serve::ServeOptions so;
    so.pipeline.clustering.radius = 6.0;
    so.pipeline.clustering.min_size = 2;
    so.pipeline.clustering.dtw.window = 4;
    so.pipeline.clustering.threads = 1;
    so.pipeline.top_k = 3;
    so.pipeline.forecaster.window = 6;
    so.pipeline.forecaster.horizon = 1;
    so.pipeline.forecaster.epochs = 2;  // harness smoke, not accuracy
    so.pipeline.forecaster.batch_size = 8;
    so.queue_capacity = kIngest.capacity;
    so.max_templates = kIngest.max_templates;
    so.bin_interval_seconds = opts_.stream.interval_seconds;
    so.retrain_interval_seconds = 0.005;
    so.max_lateness_seconds = kIngest.max_lateness_seconds;
    so.min_timestamp_seconds = kIngest.min_timestamp_seconds;
    so.max_timestamp_seconds = kIngest.max_timestamp_seconds;
    so.seed = opts_.stream.seed;
    return so;
  }

  /// One service under test and its per-shard generation watermarks.
  struct ServiceRun {
    std::unique_ptr<serve::ShardedForecastService> svc;
    std::vector<uint64_t> last_gen;
  };

  /// One retrain cycle, then the per-shard invariants: generation never goes
  /// backwards, and no NaN/Inf escapes a published snapshot.
  static Status Cycle(ServiceRun* run) {
    (void)run->svc->RetrainCycle();
    for (size_t s = 0; s < run->svc->shard_count(); ++s) {
      const uint64_t gen = run->svc->shard(s).generation();
      if (gen < run->last_gen[s]) {
        return Fail("shard " + std::to_string(s) +
                    " generation went backwards: " +
                    std::to_string(run->last_gen[s]) + " -> " +
                    std::to_string(gen));
      }
      run->last_gen[s] = gen;
      auto snap = run->svc->snapshot(s);
      if (snap == nullptr) {
        return Fail("shard " + std::to_string(s) +
                    " published a null snapshot");
      }
      DBAUGUR_RETURN_IF_ERROR(CheckSnapshotFinite(*snap));
    }
    return Status::OK();
  }

  /// Offers events [begin, end) with a cycle every `chunk` events; `since`
  /// carries the count across calls, so a feed split at the checkpoint keeps
  /// the cadence of an unsplit one.
  Status Feed(ServiceRun* run, size_t begin, size_t end, size_t chunk,
              size_t* since) const {
    for (size_t i = begin; i < end; ++i) {
      run->svc->Offer(events_[i]);
      if (++*since >= chunk) {
        *since = 0;
        DBAUGUR_RETURN_IF_ERROR(Cycle(run));
      }
    }
    return Status::OK();
  }

  /// Router conservation (every offered event accepted or dropped by exactly
  /// one shard, with or without fault storms) and, when neither faults nor a
  /// retrain deadline are in play, no failed retrain.
  Status CheckService(const serve::ShardedForecastService& svc,
                      uint64_t offered, const char* which) const {
    const serve::ShardedServiceHealth h = svc.Health();
    for (const serve::ServeStats& row : h.shards) {
      // An armed deadline can legitimately cancel a slow (but healthy)
      // retrain on a loaded machine.
      if (!fault::Active() && opts_.retrain_deadline_seconds <= 0.0 &&
          row.retrains_failed != 0) {
        return Fail(std::string(which) + " shard " +
                    std::to_string(row.shard_id) +
                    " retrain failed without a fault storm: " + row.last_error);
      }
    }
    const uint64_t accounted = h.events_accepted + h.events_dropped;
    if (accounted != offered) {
      return Fail(std::string(which) + " conservation: shards accounted " +
                  std::to_string(accounted) + " events, offered " +
                  std::to_string(offered));
    }
    return Status::OK();
  }

  /// Resume equality: the uninterrupted run and the save → load → resume
  /// run must serve identical snapshots on every shard.
  static Status CompareResumed(const serve::ShardedForecastService& svc,
                               const serve::ShardedForecastService& restored) {
    for (size_t s = 0; s < svc.shard_count(); ++s) {
      const std::string shard = "shard " + std::to_string(s) + ": ";
      auto a = svc.snapshot(s);
      auto b = restored.snapshot(s);
      if (a->generation != b->generation) {
        return Fail(shard + "resume generation " +
                    std::to_string(b->generation) + " != uninterrupted " +
                    std::to_string(a->generation));
      }
      if (a->trace_names != b->trace_names) {
        return Fail(shard + "resume trace names differ from the"
                    " uninterrupted run");
      }
      if (a->trace_cluster != b->trace_cluster) {
        return Fail(shard + "resume trace->cluster assignment differs from"
                    " the uninterrupted run");
      }
      if (a->trace_proportion != b->trace_proportion) {
        return Fail(shard + "resume trace proportions differ from the"
                    " uninterrupted run");
      }
      if (a->clusters.size() != b->clusters.size()) {
        return Fail(shard + "resume cluster count " +
                    std::to_string(b->clusters.size()) +
                    " != uninterrupted " + std::to_string(a->clusters.size()));
      }
      for (size_t r = 0; r < a->clusters.size(); ++r) {
        const serve::SnapshotCluster& ca = a->clusters[r];
        const serve::SnapshotCluster& cb = b->clusters[r];
        if (ca.cluster_id != cb.cluster_id ||
            ca.member_count != cb.member_count || ca.degraded != cb.degraded) {
          return Fail(shard + "resume cluster rank " + std::to_string(r) +
                      " provenance differs from the uninterrupted run");
        }
        if (ca.volume != cb.volume || ca.next_value != cb.next_value) {
          return Fail(shard + "resume cluster rank " + std::to_string(r) +
                      " forecast differs: next " +
                      std::to_string(cb.next_value) + " != " +
                      std::to_string(ca.next_value) + ", volume " +
                      std::to_string(cb.volume) + " != " +
                      std::to_string(ca.volume));
        }
      }
    }
    return Status::OK();
  }

  static ServiceRun StartService(const serve::ShardedServeOptions& sso) {
    ServiceRun run;
    run.svc = std::make_unique<serve::ShardedForecastService>(sso);
    run.last_gen.assign(sso.shard_count, 0);
    return run;
  }

  /// Loads the checkpoint at `base` into a fresh service, *resumed, and
  /// carries it through events [mid, end) at the cadence `since` the
  /// checkpointed run had reached, then runs one final cycle, which folds
  /// every queue. Under a fault storm an injected load failure is the
  /// storm's doing: *resumed then stays empty.
  Status Resume(const std::string& base, const serve::ShardedServeOptions& sso,
                size_t mid, size_t chunk, size_t since,
                ServiceRun* resumed) const {
    ServiceRun restored = StartService(sso);
    Status loaded = restored.svc->LoadFromFiles(base);
    if (!loaded.ok()) {
      if (fault::Active()) return Status::OK();
      return Fail("LoadFromFiles failed: " + loaded.message());
    }
    for (size_t s = 0; s < sso.shard_count; ++s) {
      restored.last_gen[s] = restored.svc->shard(s).generation();
    }
    *resumed = std::move(restored);
    DBAUGUR_RETURN_IF_ERROR(Feed(resumed, mid, events_.size(), chunk, &since));
    return Cycle(resumed);
  }

  /// The identical event stream through an N-shard service: retrain cycles
  /// every `chunk` events with per-shard invariants, router conservation and
  /// the exact single-stream differential. A single-shard run also restores
  /// a midpoint checkpoint into a second service, feeds both the identical
  /// tail and checks resume equality.
  Status ShardedLeg() {
    if (events_.empty()) return Status::OK();
    serve::ShardedServeOptions sso;
    sso.shard = MakeServeOptions();
    sso.shard_count = opts_.service_shards;
    sso.retrain_workers = std::max<size_t>(1, opts_.service_workers);
    sso.retrain_deadline_seconds = opts_.retrain_deadline_seconds;
    sso.retrain_budget = opts_.retrain_budget;
    const size_t chunk = std::max<size_t>(1, events_.size() / 6);
    const size_t mid = events_.size() / 2;

    ServiceRun run = StartService(sso);
    size_t since = 0;
    DBAUGUR_RETURN_IF_ERROR(Feed(&run, 0, mid, chunk, &since));

    // Checkpoint at the midpoint through the real SaveToFiles path, into a
    // private directory (parallel runs never share one) removed when the leg
    // ends. Under a fault storm an injected save failure is the storm's
    // doing: the leg then goes on without the restored run. Past one shard
    // the leg does not checkpoint: multi-shard resume equality is pinned by
    // ShardedServiceTest.SaveMidStreamWithUnequalCycleCountsRestoresExactly,
    // and a second service would double the work of every multi-shard run.
    std::optional<CheckpointDir> dir;
    std::string base;
    if (sso.shard_count == 1) {
      dir.emplace();
      if (dir->path().empty()) {
        return Fail("cannot create a checkpoint directory");
      }
      base = dir->path() + "/ckpt";
      Status saved = run.svc->SaveToFiles(base);
      if (!saved.ok()) {
        if (!fault::Active()) {
          return Fail("SaveToFiles failed: " + saved.message());
        }
        base.clear();
      }
    }

    // The uninterrupted run carries the tail, then the restored one loads
    // the checkpoint and carries the same tail. They run in this order, so
    // which run an injected fault hits stays reproducible under a storm.
    ServiceRun resumed;
    std::array<Status, 2> tail;
    const size_t resumed_since = since;
    tail[0] = Feed(&run, mid, events_.size(), chunk, &since);
    if (tail[0].ok()) tail[0] = Cycle(&run);
    if (!base.empty()) {
      tail[1] = Resume(base, sso, mid, chunk, resumed_since, &resumed);
    }
    for (const Status& st : tail) DBAUGUR_RETURN_IF_ERROR(st);
    DBAUGUR_RETURN_IF_ERROR(CheckService(*run.svc, events_.size(), "service"));
    if (resumed.svc != nullptr) {
      DBAUGUR_RETURN_IF_ERROR(
          CheckService(*resumed.svc, events_.size() - mid, "resumed service"));
    }

    // Fault storms forfeit both exact oracles below.
    if (fault::Active()) return Status::OK();

    // Resume equality. A deadline rules it out (a cancellation depends on
    // timing), and so does a bursty-skewed stream: the ingestor's lateness
    // reference is not checkpointed, so post-restore stale drops may
    // legitimately differ.
    if (resumed.svc != nullptr && opts_.retrain_deadline_seconds <= 0.0 &&
        opts_.stream.profile != StreamProfile::kBurstySkewed) {
      DBAUGUR_RETURN_IF_ERROR(CompareResumed(*run.svc, *resumed.svc));
    }

    // Exact sharded ≡ single-stream differential. Per-shard lateness
    // watermarks legitimately diverge from the global reference once the
    // stream trips the stale cutoff (each shard only sees its own templates'
    // timestamps), so the exact oracle self-gates on stale-free streams.
    // The final cycle folded every queue, retrained or not, so it holds at
    // any retrain budget.
    const ReferenceResult ref =
        RunSequentialReference(events_, ReferenceIngestOptions());
    if (ref.drops.stale != 0) return Status::OK();
    std::vector<ShardIngestView> views(sso.shard_count);
    for (size_t s = 0; s < sso.shard_count; ++s) {
      const serve::ServeStats row = run.svc->shard(s).stats();
      views[s].accepted = row.events_accepted;
      views[s].drops = row.drops;
      views[s].bins = run.svc->shard(s).BinContents();
    }
    return CompareShardedIngest(ref, views);
  }

  // ---- replay: dbsim execution of the replayable subset, twice ------------

  Status ReplayLeg() {
    const StreamGroundTruth& t = stream_.truth;
    std::vector<trace::LogEntry> log;
    for (const trace::LogEntry& e : parsed_.entries) {
      if (dbsim::ParseQuery(e.sql).ok()) log.push_back(e);
    }
    uint64_t want = 0;
    for (size_t s = 0; s < t.replayable.size(); ++s) {
      if (t.replayable[s]) want += t.template_counts[s];
    }
    if (log.size() != want) {
      return Fail("replayable subset has " + std::to_string(log.size()) +
                  " statements, ground truth expects " + std::to_string(want));
    }
    if (log.empty()) return Status::OK();
    std::stable_sort(log.begin(), log.end(),
                     [](const trace::LogEntry& a, const trace::LogEntry& b) {
                       return a.timestamp < b.timestamp;
                     });

    dbsim::BusTrackerDbOptions dbo;
    dbo.positions = 2000;
    dbo.schedules = 3000;
    dbo.tickets = 2000;
    dbo.trips = 1500;
    auto db1 = dbsim::MakeBusTrackerDatabase(dbo);
    auto db2 = dbsim::MakeBusTrackerDatabase(dbo);
    if (!db1.ok() || !db2.ok()) {
      return Fail("MakeBusTrackerDatabase failed: " +
                  (db1.ok() ? db2.status() : db1.status()).message());
    }
    const dbsim::ReplayOptions ropts;
    auto s1 = dbsim::ReplayWorkload(&*db1, log, {}, ropts);
    if (!s1.ok()) return Fail("replay failed: " + s1.status().message());
    auto s2 = dbsim::ReplayWorkload(&*db2, log, {}, ropts);
    if (!s2.ok()) return Fail("second replay failed: " + s2.status().message());
    if (s1->size() != s2->size()) {
      return Fail("replay window counts differ: " + std::to_string(s1->size()) +
                  " vs " + std::to_string(s2->size()));
    }
    size_t replayed = 0;
    for (size_t w = 0; w < s1->size(); ++w) {
      const dbsim::WindowStats& wa = (*s1)[w];
      const dbsim::WindowStats& wb = (*s2)[w];
      replayed += wa.queries;
      if (wa.start != wb.start || wa.queries != wb.queries ||
          wa.demand_pages != wb.demand_pages ||
          wa.throughput_qps != wb.throughput_qps ||
          wa.avg_latency_ms != wb.avg_latency_ms) {
        return Fail("replay window " + std::to_string(w) +
                    " differs between identically-seeded databases");
      }
      if (!std::isfinite(wa.throughput_qps) ||
          !std::isfinite(wa.avg_latency_ms) ||
          !std::isfinite(wa.demand_pages)) {
        return Fail("replay window " + std::to_string(w) +
                    " has non-finite stats");
      }
    }
    if (replayed != log.size()) {
      return Fail("replay executed " + std::to_string(replayed) +
                  " queries, the log holds " + std::to_string(log.size()));
    }
    return Status::OK();
  }

  // ---- migrate: deterministic rebalancing over the binned total trace -----

  Status MigrateLeg() {
    if (bin_ == nullptr || bin_->template_count() == 0) return Status::OK();
    auto traces = bin_->Traces();
    if (!traces.ok()) {
      return Fail("binner refuses to materialize for migrate: " +
                  traces.status().message());
    }
    const size_t len = (*traces)[0].size();
    if (len < 8) return Status::OK();
    std::vector<double> total(len, 0.0);
    for (const ts::Series& tr : *traces) {
      for (size_t b = 0; b < len; ++b) total[b] += tr[b];
    }
    const ts::Series base((*traces)[0].start(), opts_.stream.interval_seconds,
                          std::move(total), "total");
    const std::vector<ts::Series> regions =
        migrate::MakeRotatingRegionLoads(base, 4, 0.5, 2.0);
    const migrate::RegionPredictor perfect =
        [&regions](size_t region, size_t period) -> StatusOr<double> {
      return regions[region][period];
    };
    auto r1 = migrate::SimulateMigration(regions, 2, len / 2, perfect, 2);
    if (!r1.ok()) return Fail("migration failed: " + r1.status().message());
    auto r2 = migrate::SimulateMigration(regions, 2, len / 2, perfect, 2);
    if (!r2.ok()) {
      return Fail("second migration failed: " + r2.status().message());
    }
    if (r1->size() != r2->size()) {
      return Fail("migration period counts differ: " +
                  std::to_string(r1->size()) + " vs " +
                  std::to_string(r2->size()));
    }
    for (size_t p = 0; p < r1->size(); ++p) {
      if ((*r1)[p] != (*r2)[p]) {
        return Fail("migration balance diverges at period " +
                    std::to_string(p) + ": " + std::to_string((*r1)[p]) +
                    " vs " + std::to_string((*r2)[p]));
      }
      if (!std::isfinite((*r1)[p]) || (*r1)[p] < 0.0) {
        return Fail("migration balance at period " + std::to_string(p) +
                    " is not a finite non-negative number: " +
                    std::to_string((*r1)[p]));
      }
    }
    return Status::OK();
  }

  ChaosOptions opts_;
  ChaosReport report_;
  GeneratedStream stream_;
  trace::ParsedQueryLog parsed_;
  std::vector<serve::TraceEvent> events_;
  std::unique_ptr<serve::TraceIngestor> ing_;
  std::unique_ptr<serve::TraceBinner> bin_;
};

}  // namespace

ChaosReport RunChaos(const ChaosOptions& opts) {
  return ChaosRun(opts).Run();
}

}  // namespace dbaugur::chaos
