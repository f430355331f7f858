// perfbench: the repository benchmark. Runs one seeded workload against
// serve::ShardedForecastService, driving it only from outside (its own
// producer and reader threads, public calls, getrusage and /proc/self),
// checks the outputs, and prints the metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir DIR] [--git-sha SHA] [--source-digest HEX]
//
// Standard output ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. The line before it is the full report (every metric,
// failure accounting by operation, per-cycle series and provenance), which
// is also written to DIR. Exit status is 0 only when every output check
// passed; the checks are about correctness, never speed.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "dtw/dtw.h"
#include "models/factory.h"
#include "replay.h"
#include "report.h"
#include "serve/sharded_service.h"
#include "sql/templater.h"
#include "stats.h"
#include "sysinfo.h"
#include "trace/extractor.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace serve = dbaugur::serve;
namespace fs = std::filesystem;

/// Readers issue bursts of reads with a pause between bursts, so they load
/// the read path steadily without taking a core from the service.
constexpr size_t kReadBurst = 256;
constexpr auto kReadPause = std::chrono::milliseconds(1);
/// Latency samples kept per reader and measured period (strided over it).
constexpr size_t kPeriodSamples = size_t{1} << 13;
constexpr int64_t kThreadSampleNs = 1'000'000;
/// The producer times its offers in chunks of about this many events, or
/// this many log lines where it parses and templates first, so a run yields
/// a hundred or more rate samples.
constexpr size_t kIngestChunk = 1024;
constexpr size_t kIngestChunkLines = 16;
/// ingest_events_per_s is this percentile of the chunk rates, so one chunk
/// in ten ran at least that fast. On a shared host the single producer
/// thread is slowed, on and off, by load from outside the process: the slow
/// chunks time that load, the fast end times the ingest path. A change that
/// slows every offer still moves it.
constexpr double kIngestRatePercentile = 0.9;
constexpr size_t kDtwPairs = 2000;
constexpr size_t kSqlSideSample = 2000;
/// Extra scheduler cycles allowed for a shard that did not publish.
constexpr size_t kMaxExtraCycles = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + k;
      return false;
    }
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--source-digest") {
      a->source_digest = v;
    } else {
      *err = "unknown argument " + k;
      return false;
    }
  }
  if (!have_workload) *err = "--workload is required";
  if (a->seconds <= 0.0) *err = "--seconds must be positive";
  return err->empty();
}

// Read outcomes, by status code. A read "misses" when it gets no answer:
// NotFound (the template's cluster is not forecast, or the template is not
// in the snapshot) or FailedPrecondition (nothing trained yet).
enum ReadCode { kOk = 0, kNotFound, kFailedPrecondition, kOtherError, kCodeCount };
const char* const kReadCodeNames[] = {"ok", "not_found", "failed_precondition", "other"};

int CodeIndex(dbaugur::StatusCode c) {
  switch (c) {
    case dbaugur::StatusCode::kOk:
      return kOk;
    case dbaugur::StatusCode::kNotFound:
      return kNotFound;
    case dbaugur::StatusCode::kFailedPrecondition:
      return kFailedPrecondition;
    default:
      return kOtherError;
  }
}

/// Snapshots have no lookup by template id; this maps id -> trace index for
/// one published generation of one shard.
struct IndexMap {
  bool valid = false;
  uint64_t generation = 0;
  std::vector<int32_t> index;

  void Build(const serve::ServiceSnapshot& snap, size_t max_templates) {
    index.assign(max_templates, -1);
    for (size_t i = 0; i < snap.trace_names.size(); ++i) {
      const std::string& n = snap.trace_names[i];
      uint32_t id = 0;
      constexpr size_t kPrefix = 8;  // "template"
      if (n.size() <= kPrefix) continue;
      auto res = std::from_chars(n.data() + kPrefix, n.data() + n.size(), id);
      if (res.ec == std::errc() && id < max_templates) index[id] = static_cast<int32_t>(i);
    }
    generation = snap.generation;
    valid = true;
  }
};

// ---------------------------------------------------------------------------
// Producer: the single thread that turns generated input into Offer calls.
// ---------------------------------------------------------------------------
class Producer {
 public:
  Producer(const Workload& w, SpanRecorder* spans) : w_(w), spans_(spans) { Reset(); }

  /// Fresh templater state for a new cold start.
  void Reset() {
    registry_ = std::make_unique<dbaugur::sql::TemplateRegistry>();
    id_to_gen_.clear();
    gen_to_id_.assign(w_.spec.templates, -1);
    volume_.assign(w_.spec.service.shard.max_templates, 0.0);
  }

  struct Result {
    uint64_t offered = 0;
    uint64_t accepted = 0;
    int64_t ns = 0;
    /// Producer rate of each timed chunk: events accepted / seconds.
    std::vector<double> chunk_rates;
  };

  /// Offers bin k, timing the ingest path chunk by chunk: about kIngestChunk
  /// events each, or kIngestChunkLines log lines that are parsed and
  /// templated before their offers. `per_shard` (may be null) receives the
  /// events offered to each shard, for the traced replay.
  Result OfferBin(serve::ShardedForecastService* svc, size_t k, int64_t cycle,
                  std::vector<std::vector<serve::TraceEvent>>* per_shard) {
    const BinInput& bin = w_.bins[k];
    Result r;
    auto timed = [&r](auto&& ingest) {
      const int64_t t0 = NowNs();
      const uint64_t accepted = ingest();
      const int64_t ns = NowNs() - t0;
      r.accepted += accepted;
      r.ns += ns;
      r.chunk_rates.push_back(static_cast<double>(accepted) / NsToS(ns));
    };
    std::vector<serve::TraceEvent> parsed;
    const std::vector<serve::TraceEvent>* events = &bin.events;
    if (w_.spec.raw_log) {
      // Split and reserve before the clock starts: copying the text and
      // growing the harness's own buffer are not the ingest path.
      parsed.reserve(bin.line_template.size());
      for (const std::string& text : SplitLines(bin.log, kIngestChunkLines)) {
        timed([&] {
          const size_t first = parsed.size();
          ParseAndTemplate(text, cycle, &parsed);
          return OfferRange(svc, parsed, first, parsed.size(), cycle);
        });
      }
      events = &parsed;
    } else {
      const size_t n = events->size(), chunks = ChunkCount(n, kIngestChunk);
      for (size_t c = 0; c < chunks; ++c) {
        timed([&] {
          return OfferRange(svc, *events, c * n / chunks, (c + 1) * n / chunks, cycle);
        });
      }
    }
    r.offered = events->size();
    offer_events_ += events->size();
    if (w_.spec.raw_log) {
      lines_ += bin.line_template.size();
      MapTemplates(*events, bin.line_template);
    }
    for (const serve::TraceEvent& e : *events) {
      if (e.template_id < volume_.size()) volume_[e.template_id] += e.count;
      if (per_shard != nullptr) (*per_shard)[svc->ShardOf(e.template_id)].push_back(e);
    }
    return r;
  }

  /// Generator template behind service template id (identity for event
  /// workloads); -1 when unknown.
  int64_t GeneratorTemplate(uint32_t id) const {
    if (!w_.spec.raw_log) return id;
    return id < id_to_gen_.size() ? id_to_gen_[id] : -1;
  }

  std::vector<uint32_t> OfferedIds() const {
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < volume_.size(); ++i) {
      if (volume_[i] > 0.0) ids.push_back(i);
    }
    return ids;
  }
  /// Arrivals offered so far for template `id`.
  double Volume(uint32_t id) const { return volume_[id]; }

  size_t registry_size() const { return registry_->size(); }
  uint64_t lines() const { return lines_; }
  uint64_t offer_events() const { return offer_events_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  void Fail(const std::string& what) {
    if (failures_.size() < 8) failures_.push_back(what);
  }

  /// Parses one chunk of log text and templates its statements, appending
  /// one event per line.
  void ParseAndTemplate(const std::string& text, int64_t cycle,
                        std::vector<serve::TraceEvent>* out) {
    dbaugur::StatusOr<std::vector<dbaugur::trace::LogEntry>> entries =
        std::vector<dbaugur::trace::LogEntry>();
    {
      ScopedSpan span(spans_, "trace.parse", -1, cycle);
      entries = dbaugur::trace::ParseQueryLog(text);
    }
    if (!entries.ok()) {
      Fail("log parse: " + entries.status().ToString());
      return;
    }
    std::vector<int64_t> ids(entries->size(), -1);
    {
      ScopedSpan span(spans_, "sql.template", -1, cycle);
      for (size_t i = 0; i < entries->size(); ++i) {
        auto id = registry_->Record((*entries)[i].sql);
        if (id.ok()) ids[i] = static_cast<int64_t>(*id);
      }
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] < 0) {
        Fail("templater rejected a generated statement");
        continue;
      }
      out->push_back({static_cast<uint32_t>(ids[i]), (*entries)[i].timestamp, 1.0});
    }
  }

  /// Offers events[begin, end); returns how many were accepted.
  uint64_t OfferRange(serve::ShardedForecastService* svc,
                      const std::vector<serve::TraceEvent>& events, size_t begin, size_t end,
                      int64_t cycle) {
    ScopedSpan span(spans_, "serve.offer", -1, cycle);
    uint64_t accepted = 0;
    for (size_t i = begin; i < end; ++i) accepted += svc->Offer(events[i]) ? 1 : 0;
    return accepted;
  }

  /// The templater must map each generator template to exactly one id and
  /// back; anything else is a templating error the run reports.
  void MapTemplates(const std::vector<serve::TraceEvent>& events,
                    const std::vector<uint32_t>& line_template) {
    if (events.size() != line_template.size()) {
      Fail("parsed line count differs from generated line count");
      return;
    }
    for (size_t i = 0; i < events.size(); ++i) {
      uint32_t id = events[i].template_id;
      uint32_t gen = line_template[i];
      if (id >= id_to_gen_.size()) id_to_gen_.resize(id + 1, -1);
      if (id_to_gen_[id] == -1) id_to_gen_[id] = gen;
      if (gen_to_id_[gen] == -1) gen_to_id_[gen] = id;
      if (id_to_gen_[id] != gen || gen_to_id_[gen] != id) {
        Fail("templater merged or split generated templates");
      }
    }
  }

  const Workload& w_;
  SpanRecorder* spans_;
  std::unique_ptr<dbaugur::sql::TemplateRegistry> registry_;
  std::vector<int64_t> id_to_gen_;
  std::vector<int64_t> gen_to_id_;
  std::vector<double> volume_;  ///< arrivals offered, by service template id
  uint64_t lines_ = 0;
  uint64_t offer_events_ = 0;
  std::vector<std::string> failures_;
};

/// Read latencies of one measured period: the span from one cycle's offer
/// to the next, so every read of the measured phase lands in one period.
struct PeriodSamples {
  StridedSampler latency{kPeriodSamples};
  StridedSampler copy{kPeriodSamples};      ///< traced: SnapshotForTemplate
  StridedSampler forecast{kPeriodSamples};  ///< traced: ForecastTrace
};

// ---------------------------------------------------------------------------
// Reader: one of at most two threads reading per-template forecasts while
// cycles run. Like a client asking about the queries it runs, it picks a
// template with probability proportional to the template's warm-up arrivals.
// ---------------------------------------------------------------------------
class Reader {
 public:
  Reader(const serve::ShardedForecastService* svc, std::vector<uint32_t> ids,
         const std::vector<double>& weights, size_t max_templates, uint64_t seed,
         bool traced, bool sample_threads,
         const std::atomic<int64_t>* period, size_t periods,
         const std::atomic<int64_t>* active_cycle)
      : svc_(svc),
        ids_(std::move(ids)),
        max_templates_(max_templates),
        seed_(seed),
        traced_(traced),
        sample_threads_(sample_threads),
        period_(period),
        periods_(std::max<size_t>(periods, 1)),
        active_cycle_(active_cycle),
        during_(svc->shard_count()) {
    double total = 0.0;
    for (double w : weights) cumulative_.push_back(total += w);
    thread_ = std::thread([this] { Loop(); });
  }
  ~Reader() { Stop(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
      cpu_at_stop_ = ThreadCpuSeconds(thread_.native_handle());
      thread_.join();
    }
  }
  /// CPU the thread has used so far (valid while it runs, then frozen).
  double CpuSeconds() {
    return thread_.joinable() ? ThreadCpuSeconds(thread_.native_handle()) : cpu_at_stop_;
  }
  uint64_t ReadsDuring(size_t shard) const {
    return during_[shard].load(std::memory_order_relaxed);
  }
  int64_t threads_peak() const { return threads_peak_.load(std::memory_order_relaxed); }

  // Valid after Stop().
  const std::vector<PeriodSamples>& periods() const { return periods_; }
  uint64_t by_code(int c) const { return by_code_[c]; }
  uint64_t nonfinite() const { return nonfinite_; }

 private:
  void Loop() {
    Stream rng(seed_);
    std::vector<IndexMap> maps(svc_->shard_count());
    int64_t last_sample = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      for (size_t b = 0; b < kReadBurst; ++b) {
        double u = rng.Uniform() * cumulative_.back();
        size_t pick = static_cast<size_t>(
            std::upper_bound(cumulative_.begin(), cumulative_.end(), u) - cumulative_.begin());
        uint32_t id = ids_[std::min(pick, ids_.size() - 1)];
        size_t shard = svc_->ShardOf(id);
        int64_t cycle = active_cycle_->load(std::memory_order_acquire);
        int64_t t0 = NowNs();
        std::shared_ptr<const serve::ServiceSnapshot> snap = svc_->SnapshotForTemplate(id);
        int64_t t1 = traced_ ? NowNs() : 0;
        IndexMap& m = maps[shard];
        int64_t excluded = 0;
        if (!m.valid || m.generation != snap->generation) {
          int64_t r0 = NowNs();
          m.Build(*snap, max_templates_);
          excluded = NowNs() - r0;
        }
        int64_t t2 = traced_ ? NowNs() : 0;
        int32_t idx = m.index[id];
        int code;
        if (idx < 0) {
          code = snap->trained() ? kNotFound : kFailedPrecondition;
        } else {
          auto f = snap->ForecastTrace(static_cast<size_t>(idx));
          code = CodeIndex(f.status().code());
          if (f.ok() && !std::isfinite(*f)) ++nonfinite_;
        }
        int64_t t3 = NowNs();
        size_t p = std::min(static_cast<size_t>(std::max<int64_t>(
                                period_->load(std::memory_order_relaxed), 0)),
                            periods_.size() - 1);
        PeriodSamples& ps = periods_[p];
        if (traced_) {
          ps.copy.Add(static_cast<double>(t1 - t0));
          ps.forecast.Add(static_cast<double>(t3 - t2));
          ps.latency.Add(static_cast<double>((t1 - t0) + (t3 - t2)));
        } else {
          ps.latency.Add(static_cast<double>(t3 - t0 - excluded));
        }
        ++by_code_[code];
        if (cycle >= 0 && active_cycle_->load(std::memory_order_acquire) == cycle) {
          during_[shard].fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (sample_threads_ && active_cycle_->load(std::memory_order_relaxed) >= 0) {
        int64_t now = NowNs();
        if (now - last_sample >= kThreadSampleNs) {
          last_sample = now;
          int64_t n = ThreadCount();
          if (n > threads_peak_.load(std::memory_order_relaxed)) {
            threads_peak_.store(n, std::memory_order_relaxed);
          }
        }
      }
      std::this_thread::sleep_for(kReadPause);
    }
  }

  const serve::ShardedForecastService* svc_;
  std::vector<uint32_t> ids_;
  std::vector<double> cumulative_;  ///< running sum of the pick weights
  size_t max_templates_;
  uint64_t seed_;
  bool traced_;
  bool sample_threads_;
  const std::atomic<int64_t>* period_;
  std::vector<PeriodSamples> periods_;
  const std::atomic<int64_t>* active_cycle_;
  std::vector<std::atomic<uint64_t>> during_;
  std::atomic<int64_t> threads_peak_{0};
  std::atomic<bool> stop_{false};
  uint64_t by_code_[kCodeCount] = {};
  uint64_t nonfinite_ = 0;
  double cpu_at_stop_ = 0.0;
  std::thread thread_;  // last: started after every member it uses exists
};

// ---------------------------------------------------------------------------
// Accounting.
// ---------------------------------------------------------------------------
struct Accounting {
  uint64_t offered = 0, accepted = 0, dropped = 0;
  serve::IngestDropStats drops;
  /// Producer rate of every timed chunk of the measured bins' offers;
  /// ingest_events_per_s is their kIngestRatePercentile percentile.
  std::vector<double> ingest_chunk_rates;
  /// Producer rate of each measured bin, and of each cold start's warm-up
  /// offers. Reported only: the warm-up writes into fresh queue memory, so
  /// it also times page faults, whose cost changes from one service instance
  /// to the next.
  std::vector<double> ingest_bin_rates, setup_ingest_rates;
  uint64_t scheduled = 0, completed = 0, skipped = 0, failed = 0, cancelled = 0;
  uint64_t reads = 0, read_codes[kCodeCount] = {}, read_nonfinite = 0;
  uint64_t sweep_reads = 0, sweep_codes[kCodeCount] = {};
};

/// Folds one service instance's counters into the run's accounting and
/// checks that every offered event was either accepted or dropped.
void CloseService(const serve::ShardedForecastService& svc, uint64_t offered,
                  uint64_t scheduled, Accounting* acc, std::vector<std::string>* failures) {
  serve::ShardedServiceHealth h = svc.Health();
  serve::ServeStats st = svc.stats();
  acc->offered += offered;
  acc->accepted += h.events_accepted;
  acc->dropped += h.events_dropped;
  acc->drops.full += h.drops.full;
  acc->drops.template_id += h.drops.template_id;
  acc->drops.nonfinite += h.drops.nonfinite;
  acc->drops.negative += h.drops.negative;
  acc->drops.stale += h.drops.stale;
  acc->drops.pre_epoch += h.drops.pre_epoch;
  acc->drops.future += h.drops.future;
  acc->scheduled += scheduled;
  acc->completed += st.retrains_completed;
  acc->skipped += st.retrains_skipped;
  acc->failed += st.retrains_failed;
  acc->cancelled += h.retrains_cancelled;
  if (offered != h.events_accepted + h.events_dropped) {
    failures->push_back("offered " + std::to_string(offered) + " != accepted " +
                        std::to_string(h.events_accepted) + " + dropped " +
                        std::to_string(h.events_dropped));
  }
}

struct CycleRecord {
  double lag_s = 0, cpu_s = 0, wall_s = 0, lateness_s = 0;
  int64_t invol_ctx = 0;
  size_t queue_depth_max = 0;
  size_t scheduled = 0, extra_cycles = 0;
  uint64_t fits = 0;
  uint64_t min_reads_during = 0;
  std::vector<double> shard_retrain_s;
};

/// Every offered template's served forecast for the bin after `k`, scored
/// against the generator's realized count. Deterministic: run by the producer thread
/// after each publish.
struct SweepTotals {
  double abs_err = 0, realized = 0;
};

void Sweep(const serve::ShardedForecastService& svc, const Producer& producer,
           const Workload& w, size_t target_bin, const std::vector<uint32_t>& ids,
           Accounting* acc, SweepTotals* totals, std::vector<std::string>* failures) {
  size_t max_templates = w.spec.service.shard.max_templates;
  std::vector<std::shared_ptr<const serve::ServiceSnapshot>> snaps;
  std::vector<IndexMap> maps(svc.shard_count());
  for (size_t s = 0; s < svc.shard_count(); ++s) {
    snaps.push_back(svc.snapshot(s));
    maps[s].Build(*snaps[s], max_templates);
    for (const serve::SnapshotCluster& c : snaps[s]->clusters) {
      if (!std::isfinite(c.next_value)) {
        failures->push_back("non-finite forecast for a cluster of shard " + std::to_string(s));
      }
    }
  }
  for (uint32_t id : ids) {
    size_t s = svc.ShardOf(id);
    int32_t idx = maps[s].index[id];
    double forecast = 0.0;  // an unanswered template counts as a forecast of 0
    int code;
    if (idx < 0) {
      code = snaps[s]->trained() ? kNotFound : kFailedPrecondition;
    } else {
      auto f = snaps[s]->ForecastTrace(static_cast<size_t>(idx));
      code = CodeIndex(f.status().code());
      if (f.ok()) {
        forecast = *f;
        if (!std::isfinite(forecast)) {
          failures->push_back("non-finite forecast for template " + std::to_string(id));
          forecast = 0.0;
        }
      }
    }
    ++acc->sweep_reads;
    ++acc->sweep_codes[code];
    int64_t gen = producer.GeneratorTemplate(id);
    double realized = gen >= 0 ? w.realized[target_bin][static_cast<size_t>(gen)] : 0.0;
    totals->abs_err += std::abs(forecast - realized);
    totals->realized += realized;
  }
}

/// Restored service must serve exactly what the saved one served.
std::string CompareServices(const serve::ShardedForecastService& a,
                            const serve::ShardedForecastService& b) {
  if (a.shard_count() != b.shard_count()) return "shard count";
  for (size_t s = 0; s < a.shard_count(); ++s) {
    std::string diff = CompareSnapshots(*a.snapshot(s), *b.snapshot(s));
    if (!diff.empty()) return "shard " + std::to_string(s) + ": " + diff;
  }
  return "";
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::vector<double> ZNormalize(const std::vector<double>& v) {
  double mean = 0.0, var = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  for (double x : v) var += (x - mean) * (x - mean);
  double sd = std::sqrt(var / static_cast<double>(v.size()));
  if (sd <= 0.0) sd = 1.0;
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - mean) / sd;
  return out;
}

// Span arithmetic for the per-layer metrics.
struct SpanIndex {
  std::vector<Span> spans;
  std::vector<int64_t> self_ns;

  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans) {
      if (s.name == name) out.push_back(NsToS(s.end_ns - s.begin_ns));
    }
    return out;
  }
  std::vector<double> Selfs(const std::string& name) const {
    std::vector<double> out;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name) out.push_back(NsToS(self_ns[i]));
    }
    return out;
  }
  double TotalNs(const std::string& name) const {
    double t = 0;
    for (const Span& s : spans) {
      if (s.name == name) t += static_cast<double>(s.end_ns - s.begin_ns);
    }
    return t;
  }
};

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

#ifdef __VERSION__
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
  /// End-to-end metrics only: listed, with a bound, in BENCHMARK.json. The
  /// two failure ratios are 0 by construction on every workload, so they
  /// reach the result line through attempted/failed instead. The read
  /// percentiles and restore_s stay in the report only: on a shared 4-vCPU
  /// virtual machine their spread between runs reached the largest bound
  /// allowed (perfbench/README.md).
  bool bounded = true;
};

Json MetricsJson(const std::vector<Metric>& metrics, bool bounded_only) {
  Json out = Json::Object();
  for (const Metric& m : metrics) {
    if (bounded_only && !m.bounded) continue;
    out.Set(m.name, Json::Object().Set("value", Json::Num(m.value)).Set("unit", Json::Str(m.unit)));
  }
  return out;
}

Json ArrayJson(const std::vector<double>& v) {
  Json a = Json::Array();
  for (double x : v) a.Push(Json::Num(x));
  return a;
}

Json CountJson(uint64_t v) { return Json::Int(static_cast<int64_t>(v)); }

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// One replayed shard of one measured cycle.
struct Replayed {
  int64_t cycle = 0;
  int64_t shard = 0;
  ReplayResult result;  ///< Traces dropped; the last cycle's are kept apart.
};

/// One run of one workload: cold starts, measured cycles, traced replays,
/// checkpoint, then metrics and checks.
class Bench {
 public:
  Bench(const Args& args, const Workload& w)
      : args_(args),
        w_(w),
        spec_(w.spec),
        opts_(w.spec.service),
        shards_(w.spec.service.shard_count),
        nproc_(AvailableCpus()),
        spans_(args.trace),
        producer_(w, &spans_) {}

  int Run();

 private:
  void ColdStarts();
  void MeasuredPhase();
  std::vector<size_t> ReplayShards(size_t cycle) const;
  void ModelAndKernelTimings();
  void SqlSideSample();
  void SaveAndRestore(int64_t cycle);
  void CollectReads();
  std::vector<double> PerCycle(double (*f)(const CycleRecord&)) const;
  std::vector<Metric> EndToEnd() const;
  std::vector<Metric> PerLayer(Json* shares) const;
  Json Report(const std::vector<Metric>& e2e, const std::vector<Metric>& layers,
              Json shares) const;

  const Args& args_;
  const Workload& w_;
  const WorkloadSpec& spec_;
  const serve::ShardedServeOptions& opts_;
  const size_t shards_;
  const int64_t nproc_;
  SpanRecorder spans_;
  Producer producer_;
  Accounting acc_;
  std::vector<std::string> failures_;

  std::unique_ptr<serve::ShardedForecastService> svc_;
  uint64_t svc_offered_ = 0;    ///< Offers to the current service instance.
  uint64_t svc_scheduled_ = 0;  ///< Shard retrains it scheduled.
  std::vector<double> setup_s_;
  std::vector<CycleRecord> records_;
  std::vector<Replayed> replays_;
  std::vector<dbaugur::ts::Series> last_traces_;  ///< Last cycle, first replayed shard.
  dbaugur::ts::Series last_rank0_;
  SweepTotals wape_;
  int64_t threads_peak_ = 0;

  std::vector<double> p50s_, p99s_, copy_p50s_, forecast_p50s_;  ///< Per period.
  size_t latency_samples_ = 0, min_period_samples_ = 0;

  double fit_wfgan_s_ = 0, fit_tcn_s_ = 0, fit_mlp_s_ = 0;
  double dtw_kim_ns_ = 0, dtw_keogh_ns_ = 0, dtw_full_ns_ = 0;
  uint64_t sql_lines_ = 0, sql_templates_ = 0;
  bool sql_side_sample_ = false;

  fs::path ckpt_dir_;
  std::vector<double> save_s_, restore_s_;  ///< One per measured cycle, plus the final one.
  uint64_t checkpoint_bytes_ = 0;           ///< Written by the final save.
  SpanIndex si_;  ///< Traced run: every span and its self time.

  // Shared with the readers, which are declared last so they stop first.
  std::atomic<int64_t> period_{0};
  std::atomic<int64_t> active_cycle_{-1};
  std::vector<std::unique_ptr<Reader>> readers_;
};

void Bench::ColdStarts() {
  for (size_t rep = 0; rep < spec_.setup_reps; ++rep) {
    if (svc_ != nullptr) {
      CloseService(*svc_, svc_offered_, svc_scheduled_, &acc_, &failures_);
      svc_.reset();
    }
    producer_.Reset();
    svc_offered_ = svc_scheduled_ = 0;
    // Hand freed memory back to the OS, so every cold start begins from the
    // heap a freshly started process would have.
    malloc_trim(0);
    int64_t t0 = NowNs();
    svc_ = std::make_unique<serve::ShardedForecastService>(opts_);
    uint64_t accepted = 0;
    int64_t offer_ns = 0;
    for (size_t k = 0; k < spec_.warmup_bins; ++k) {
      Producer::Result r = producer_.OfferBin(svc_.get(), k, -1, nullptr);
      svc_offered_ += r.offered;
      accepted += r.accepted;
      offer_ns += r.ns;
    }
    acc_.setup_ingest_rates.push_back(static_cast<double>(accepted) / NsToS(offer_ns));
    bool all_trained = false;
    for (size_t attempt = 0; attempt <= kMaxExtraCycles && !all_trained; ++attempt) {
      svc_scheduled_ += svc_->RetrainCycle().size();
      all_trained = true;
      for (size_t s = 0; s < shards_; ++s) all_trained &= svc_->shard(s).generation() >= 1;
    }
    setup_s_.push_back(NsToS(NowNs() - t0));
    if (!all_trained) failures_.push_back("setup left a shard without a trained generation");
  }
}

std::vector<size_t> Bench::ReplayShards(size_t cycle) const {
  std::vector<size_t> out;
  if (shards_ <= spec_.replay_shards) {
    for (size_t s = 0; s < shards_; ++s) out.push_back(s);
    return out;
  }
  Stream pick(Mix(args_.seed ^ (0xc1c1eULL + cycle)));
  std::set<size_t> chosen;
  while (chosen.size() < spec_.replay_shards) chosen.insert(pick.Below(shards_));
  return {chosen.begin(), chosen.end()};
}

void Bench::MeasuredPhase() {
  const size_t cycles = spec_.measured_cycles;
  const std::vector<uint32_t> read_ids = producer_.OfferedIds();
  std::vector<double> read_weights;
  for (uint32_t id : read_ids) read_weights.push_back(producer_.Volume(id));
  for (size_t i = 0; i < spec_.readers; ++i) {
    readers_.push_back(std::make_unique<Reader>(
        svc_.get(), read_ids, read_weights, opts_.shard.max_templates,
        Mix(args_.seed ^ (0x5eedULL + i)), args_.trace, i == 0, &period_, cycles,
        &active_cycle_));
  }
  // The service gives each retrain worker a fit pool of clustering.threads
  // lanes; the traced replay uses one of the same size.
  std::unique_ptr<dbaugur::ThreadPool> fit_pool;
  if (args_.trace && opts_.shard.pipeline.clustering.threads > 1) {
    fit_pool = std::make_unique<dbaugur::ThreadPool>(opts_.shard.pipeline.clustering.threads);
  }
  const bool open_loop = spec_.bin_period_s > 0.0;
  const int64_t period_ns = static_cast<int64_t>(spec_.bin_period_s * 1e9);
  const int64_t phase_start = NowNs();
  int64_t schedule_shift_ns = 0;  // traced replays pause the bin schedule

  for (size_t c = 0; c < cycles; ++c) {
    const size_t k = spec_.warmup_bins + c;
    const int64_t cyc = static_cast<int64_t>(c);
    period_.store(cyc, std::memory_order_relaxed);
    CycleRecord rec;
    int64_t due = 0;
    if (open_loop) {
      due = phase_start + schedule_shift_ns + cyc * period_ns;
      int64_t now = NowNs();
      if (now < due) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      rec.lateness_s = NsToS(std::max<int64_t>(0, NowNs() - due));
    }

    // Replay inputs that must be captured before the cycle drains the queue.
    std::vector<size_t> replay_shards;
    std::vector<ReplayInput> replay_in;
    std::vector<std::vector<serve::TraceEvent>> per_shard(shards_);
    if (args_.trace) {
      replay_shards = ReplayShards(c);
      for (size_t s : replay_shards) {
        ReplayInput in;
        in.options = &opts_.shard;
        in.before = svc_->shard(s).BinContents();
        in.last_good = svc_->snapshot(s);
        replay_in.push_back(std::move(in));
      }
    }

    std::vector<uint64_t> gen_before(shards_);
    for (size_t s = 0; s < shards_; ++s) gen_before[s] = svc_->shard(s).generation();
    Producer::Result offered =
        producer_.OfferBin(svc_.get(), k, cyc, args_.trace ? &per_shard : nullptr);
    const int64_t offered_at = NowNs();
    svc_offered_ += offered.offered;
    acc_.ingest_bin_rates.push_back(static_cast<double>(offered.accepted) / NsToS(offered.ns));
    acc_.ingest_chunk_rates.insert(acc_.ingest_chunk_rates.end(), offered.chunk_rates.begin(),
                                   offered.chunk_rates.end());
    for (size_t s = 0; s < shards_; ++s) {
      rec.queue_depth_max = std::max(rec.queue_depth_max, svc_->shard(s).queue_depth());
    }

    const int64_t ivcs0 = InvoluntaryContextSwitches();
    std::vector<double> reader_cpu0;
    for (auto& r : readers_) reader_cpu0.push_back(r->CpuSeconds());
    std::vector<uint64_t> reads_before(shards_, 0);
    for (size_t s = 0; s < shards_; ++s) {
      for (auto& r : readers_) reads_before[s] += r->ReadsDuring(s);
    }
    const double cpu0 = ProcessCpuSeconds();
    active_cycle_.store(cyc, std::memory_order_release);
    const int64_t cycle_start = NowNs();
    int64_t cycle_span = spans_.Begin("serve.retrain_cycle", -1, cyc, -1);
    std::vector<size_t> order = svc_->RetrainCycle();
    auto all_published = [&] {
      for (size_t s = 0; s < shards_; ++s) {
        if (svc_->shard(s).generation() <= gen_before[s]) return false;
      }
      return true;
    };
    while (!all_published() && rec.extra_cycles < kMaxExtraCycles) {
      ++rec.extra_cycles;
      std::vector<size_t> more = svc_->RetrainCycle();
      order.insert(order.end(), more.begin(), more.end());
    }
    const int64_t published_at = NowNs();
    spans_.End(cycle_span);
    active_cycle_.store(-1, std::memory_order_release);
    const double cpu1 = ProcessCpuSeconds();
    std::vector<double> reader_cpu;
    for (size_t i = 0; i < readers_.size(); ++i) {
      reader_cpu.push_back(readers_[i]->CpuSeconds() - reader_cpu0[i]);
    }
    rec.invol_ctx = InvoluntaryContextSwitches() - ivcs0;
    rec.cpu_s = ServiceCpuSeconds(cpu1 - cpu0, reader_cpu);
    rec.wall_s = NsToS(published_at - cycle_start);
    rec.lag_s = NsToS(published_at - (open_loop ? due : offered_at));
    rec.scheduled = order.size();
    svc_scheduled_ += order.size();
    if (!all_published()) {
      failures_.push_back("cycle " + std::to_string(c) + ": a shard did not publish");
    }

    rec.min_reads_during = UINT64_MAX;
    for (size_t s = 0; s < shards_; ++s) {
      uint64_t after = 0;
      for (auto& r : readers_) after += r->ReadsDuring(s);
      rec.min_reads_during = std::min(rec.min_reads_during, after - reads_before[s]);
    }
    if (rec.min_reads_during == 0) {
      failures_.push_back("cycle " + std::to_string(c) +
                          ": a shard completed no reads while it ran");
    }
    for (size_t s : order) {
      rec.shard_retrain_s.push_back(svc_->shard(s).last_retrain_seconds());
      rec.fits += svc_->snapshot(s)->cluster_count();
    }
    for (auto& r : readers_) threads_peak_ = std::max(threads_peak_, r->threads_peak());

    Sweep(*svc_, producer_, w_, k + 1, producer_.OfferedIds(), &acc_, &wape_, &failures_);

    // The open-loop schedule is paused while the producer thread replays and
    // checkpoints, so neither makes the next bin late.
    const int64_t pause_start = NowNs();
    if (args_.trace) {
      for (size_t i = 0; i < replay_shards.size(); ++i) {
        const size_t s = replay_shards[i];
        const int64_t shard = static_cast<int64_t>(s);
        ReplayInput& in = replay_in[i];
        in.after = svc_->shard(s).BinContents();
        in.events = std::move(per_shard[s]);
        in.published = svc_->snapshot(s);
        in.generation = in.published->generation;
        in.cycles_before = svc_->shard(s).stats().retrains_completed - 1;
        int64_t root = spans_.Begin("replay", -1, cyc, shard);
        ReplayResult res = ReplayShard(in, &spans_, root, cyc, shard, fit_pool.get());
        spans_.End(root);
        if (!res.reproduced) {
          failures_.push_back("cycle " + std::to_string(c) + " shard " + std::to_string(s) +
                              ": Rebuild replay differs from the published snapshot (" +
                              res.mismatch + ")");
        }
        if (i == 0) {
          last_traces_ = std::move(res.traces_values);
          last_rank0_ = std::move(res.rank0);
        }
        res.traces_values.clear();
        replays_.push_back({cyc, shard, std::move(res)});
      }
    }
    // A checkpoint round after every cycle samples restore_s across the
    // whole measured phase rather than in one burst at its end.
    SaveAndRestore(cyc);
    schedule_shift_ns += NowNs() - pause_start;
    records_.push_back(std::move(rec));
  }
  for (auto& r : readers_) {
    r->Stop();
    threads_peak_ = std::max(threads_peak_, r->threads_peak());
  }
}

void Bench::ModelAndKernelTimings() {
  // Each member model alone on the last replayed rank-0 representative.
  dbaugur::models::ForecasterOptions fo = opts_.shard.pipeline.forecaster;
  const std::pair<const char*, double*> fits[] = {
      {"WFGAN", &fit_wfgan_s_}, {"TCN", &fit_tcn_s_}, {"MLP", &fit_mlp_s_}};
  for (const auto& [name, out] : fits) {
    if (last_rank0_.size() < fo.window + fo.horizon + 1) break;
    ScopedSpan span(&spans_, "models.fit", -1);
    int64_t t0 = NowNs();
    auto m = dbaugur::models::MakeForecaster(name, fo);
    if (m.ok() && (*m)->Fit(last_rank0_.values()).ok()) *out = NsToS(NowNs() - t0);
  }
  // DTW kernels on seeded pairs of the shard's own z-normalized traces.
  if (last_traces_.size() < 2) return;
  const dbaugur::dtw::DtwOptions dopt = opts_.shard.pipeline.clustering.dtw;
  std::vector<std::vector<double>> z;
  std::vector<dbaugur::dtw::Envelope> env;
  for (const auto& t : last_traces_) {
    z.push_back(ZNormalize(t.values()));
    env.push_back(dbaugur::dtw::BuildEnvelope(z.back(), dopt.window));
  }
  Stream pick(Mix(args_.seed ^ 0xd7dULL));
  std::vector<std::pair<size_t, size_t>> pairs;
  while (pairs.size() < kDtwPairs) {
    size_t a = pick.Below(z.size()), b = pick.Below(z.size());
    if (a != b) pairs.emplace_back(a, b);
  }
  double sink = 0.0;
  int64_t t0 = NowNs();
  for (auto [a, b] : pairs) sink += dbaugur::dtw::LbKim(z[a], z[b]);
  int64_t t1 = NowNs();
  for (auto [a, b] : pairs) sink += dbaugur::dtw::LbKeoghSymmetric(z[a], env[a], z[b], env[b]);
  int64_t t2 = NowNs();
  for (auto [a, b] : pairs) {
    auto d = dbaugur::dtw::DtwDistance(z[a], z[b], dopt);
    if (d.ok()) sink += *d;
  }
  int64_t t3 = NowNs();
  double n = static_cast<double>(pairs.size());
  dtw_kim_ns_ = static_cast<double>(t1 - t0) / n;
  dtw_keogh_ns_ = static_cast<double>(t2 - t1) / n;
  dtw_full_ns_ = static_cast<double>(t3 - t2) / n;
  if (!std::isfinite(sink)) failures_.push_back("non-finite DTW distance");
}

void Bench::SqlSideSample() {
  // This workload's ingest path carries no SQL; the front end is timed on a
  // side sample of its last bin's events rendered as log lines, one
  // statement shape per template.
  sql_side_sample_ = true;
  const std::vector<serve::TraceEvent>& ev = w_.bins.back().events;
  if (ev.empty()) return;
  Stream pick(Mix(args_.seed ^ 0x5a1ULL));
  std::string log;
  std::set<uint32_t> distinct;
  for (size_t i = 0; i < kSqlSideSample; ++i) {
    const serve::TraceEvent& e = ev[pick.Below(ev.size())];
    distinct.insert(e.template_id);
    log += std::to_string(e.timestamp) + " SELECT v FROM t" + std::to_string(e.template_id) +
           " WHERE k = " + std::to_string(pick.Below(100000)) + " AND c IN (" +
           std::to_string(pick.Below(50)) + ", " + std::to_string(pick.Below(50)) + ")\n";
  }
  dbaugur::sql::TemplateRegistry reg;
  dbaugur::StatusOr<std::vector<dbaugur::trace::LogEntry>> entries =
      std::vector<dbaugur::trace::LogEntry>();
  {
    ScopedSpan span(&spans_, "trace.parse", -1);
    entries = dbaugur::trace::ParseQueryLog(log);
  }
  if (!entries.ok()) {
    failures_.push_back("side-sample log parse: " + entries.status().ToString());
    return;
  }
  {
    ScopedSpan span(&spans_, "sql.template", -1);
    for (const auto& e : *entries) (void)reg.Record(e.sql);
  }
  sql_lines_ = entries->size();
  sql_templates_ = reg.size();
  if (sql_templates_ != distinct.size()) {
    failures_.push_back("templater found " + std::to_string(sql_templates_) +
                        " templates in the side sample, expected " +
                        std::to_string(distinct.size()));
  }
}

/// SaveToFiles into an empty directory, then LoadFromFiles into a fresh
/// service that must serve exactly what the saved one serves.
void Bench::SaveAndRestore(int64_t cycle) {
  ckpt_dir_ = fs::path(args_.out_dir) / ("ckpt-" + spec_.name + "-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(ckpt_dir_, ec);
  fs::create_directories(ckpt_dir_, ec);
  const std::string base = (ckpt_dir_ / "svc").string();
  dbaugur::Status st;
  {
    ScopedSpan span(&spans_, "serve.checkpoint_save", -1, cycle);
    int64_t t0 = NowNs();
    st = svc_->SaveToFiles(base);
    save_s_.push_back(NsToS(NowNs() - t0));
  }
  if (!st.ok()) {
    failures_.push_back("SaveToFiles: " + st.ToString());
    return;
  }
  checkpoint_bytes_ = DirectoryBytes(ckpt_dir_);
  auto fresh = std::make_unique<serve::ShardedForecastService>(opts_);
  {
    ScopedSpan span(&spans_, "serve.checkpoint_load", -1, cycle);
    int64_t t0 = NowNs();
    st = fresh->LoadFromFiles(base);
    restore_s_.push_back(NsToS(NowNs() - t0));
  }
  if (!st.ok()) {
    failures_.push_back("LoadFromFiles: " + st.ToString());
    return;
  }
  std::string diff = CompareServices(*svc_, *fresh);
  if (!diff.empty()) failures_.push_back("restored service differs: " + diff);
}

void Bench::CollectReads() {
  // Percentiles per measured period, then the median over periods.
  min_period_samples_ = SIZE_MAX;
  for (size_t p = 0; p < spec_.measured_cycles; ++p) {
    std::vector<double> lat, copy_ns, forecast_ns;
    for (auto& r : readers_) {
      const PeriodSamples& ps = r->periods()[p];
      lat.insert(lat.end(), ps.latency.samples().begin(), ps.latency.samples().end());
      copy_ns.insert(copy_ns.end(), ps.copy.samples().begin(), ps.copy.samples().end());
      forecast_ns.insert(forecast_ns.end(), ps.forecast.samples().begin(),
                         ps.forecast.samples().end());
    }
    latency_samples_ += lat.size();
    min_period_samples_ = std::min(min_period_samples_, lat.size());
    p50s_.push_back(Percentile(lat, 0.50).value);
    p99s_.push_back(Percentile(lat, 0.99).value);
    copy_p50s_.push_back(Percentile(copy_ns, 0.50).value);
    forecast_p50s_.push_back(Percentile(forecast_ns, 0.50).value);
  }
  for (auto& r : readers_) {
    for (int c = 0; c < kCodeCount; ++c) acc_.read_codes[c] += r->by_code(c);
    acc_.read_nonfinite += r->nonfinite();
  }
  for (int c = 0; c < kCodeCount; ++c) acc_.reads += acc_.read_codes[c];
  if (acc_.read_nonfinite > 0) failures_.push_back("a reader was served a non-finite forecast");
}

std::vector<double> Bench::PerCycle(double (*f)(const CycleRecord&)) const {
  std::vector<double> v;
  for (const CycleRecord& r : records_) v.push_back(f(r));
  return v;
}

std::vector<Metric> Bench::EndToEnd() const {
  const double kMiB = 1024.0 * 1024.0;
  return {
      {"setup_s", Median(setup_s_), "s"},
      {"publish_lag_s", Median(PerCycle([](const CycleRecord& r) { return r.lag_s; })), "s"},
      {"cycle_cpu_s", Median(PerCycle([](const CycleRecord& r) { return r.cpu_s; })), "CPU-s"},
      {"read_p50_ns", Median(p50s_), "ns", false},
      {"read_p99_ns", Median(p99s_), "ns", false},
      {"ingest_events_per_s", Percentile(acc_.ingest_chunk_rates, kIngestRatePercentile).value,
       "events/s"},
      {"offer_drop_ratio", Ratio(acc_.dropped, acc_.offered), "ratio", false},
      {"read_miss_ratio",
       Ratio(acc_.sweep_codes[kNotFound] + acc_.sweep_codes[kFailedPrecondition],
             acc_.sweep_reads),
       "ratio"},
      {"retrain_fail_ratio", Ratio(acc_.failed, acc_.scheduled), "ratio", false},
      {"forecast_wape", wape_.realized > 0 ? wape_.abs_err / wape_.realized : 0.0, "ratio"},
      {"rss_peak_mb", PeakRssMb(), "MB"},
      {"checkpoint_mb", static_cast<double>(checkpoint_bytes_) / kMiB, "MB"},
      {"restore_s", Median(restore_s_), "s", false},
  };
}

std::vector<Metric> Bench::PerLayer(Json* shares) const {
  auto median_of = [&](const char* name) { return Median(si_.Durations(name)); };
  uint64_t statements = spec_.raw_log ? producer_.lines() : sql_lines_;
  auto per_statement = [&](const char* name) {
    return statements > 0 ? si_.TotalNs(name) / static_cast<double>(statements) : 0.0;
  };

  // Per replay: Rebuild minus the stage spans that cover it, and the sweep's
  // cost per pair.
  std::map<std::pair<int64_t, int64_t>, double> rebuild, covered, add_traces;
  for (const Span& s : si_.spans) {
    auto key = std::make_pair(s.cycle, s.shard);
    double d = NsToS(s.end_ns - s.begin_ns);
    if (s.name == "serve.rebuild") rebuild[key] += d;
    if (s.name == "serve.materialize" || s.name == "core.build" || s.name == "serve.snapshot") {
      covered[key] += d;
    }
    if (s.name == "cluster.add_traces") add_traces[key] += d;
  }
  std::vector<double> remainder, pairs, kim, keogh, full, pruned, pair_ns, clusters, share,
      values, bins;
  for (const auto& [key, d] : rebuild) remainder.push_back(d - covered[key]);
  for (const Replayed& rp : replays_) {
    const ReplayResult& r = rp.result;
    pairs.push_back(static_cast<double>(r.pairs));
    kim.push_back(static_cast<double>(r.pruning.kim_rejections));
    keogh.push_back(static_cast<double>(r.pruning.keogh_rejections));
    full.push_back(static_cast<double>(r.pruning.full_dtw));
    pruned.push_back(Ratio(static_cast<uint64_t>(r.pruning.kim_rejections + r.pruning.keogh_rejections),
                           static_cast<uint64_t>(r.pairs)));
    if (r.pairs > 0) {
      pair_ns.push_back(add_traces[{rp.cycle, rp.shard}] * 1e9 / static_cast<double>(r.pairs));
    }
    clusters.push_back(static_cast<double>(r.clusters));
    share.push_back(r.topk_volume_share);
    values.push_back(static_cast<double>(r.traces * r.history_bins));
    bins.push_back(static_cast<double>(r.history_bins));
  }

  // Where the stage replay's time went: self time per span name over the
  // stage trees, as a share of their summed self time (parallel fits add
  // up, so shares sum to 1 whatever the lane count).
  std::map<int64_t, size_t> by_id;
  for (size_t i = 0; i < si_.spans.size(); ++i) by_id[si_.spans[i].id] = i;
  std::map<std::string, double> self_by_name;
  double self_total = 0;
  for (size_t i = 0; i < si_.spans.size(); ++i) {
    bool under = false;
    for (int64_t p = si_.spans[i].id; p >= 0 && !under;) {
      const Span& ps = si_.spans[by_id[p]];
      under = ps.name == "serve.rebuild.stages";
      p = ps.parent;
    }
    if (!under) continue;
    self_by_name[si_.spans[i].name] += static_cast<double>(si_.self_ns[i]);
    self_total += static_cast<double>(si_.self_ns[i]);
  }
  for (const auto& [name, ns] : self_by_name) {
    shares->Set(name, Json::Num(self_total > 0 ? ns / self_total : 0.0));
  }

  // Per cycle: shard retrain durations and worker use.
  std::vector<double> retrain_p50, retrain_max, skew, busy;
  for (const CycleRecord& r : records_) {
    if (r.shard_retrain_s.empty()) continue;
    double sum = 0;
    for (double x : r.shard_retrain_s) sum += x;
    double mean = sum / static_cast<double>(r.shard_retrain_s.size());
    retrain_p50.push_back(Percentile(r.shard_retrain_s, 0.5).value);
    retrain_max.push_back(MaxOf(r.shard_retrain_s));
    skew.push_back(mean > 0 ? MaxOf(r.shard_retrain_s) / mean : 0.0);
    busy.push_back(sum / (r.wall_s * static_cast<double>(opts_.retrain_workers)));
  }
  uint64_t min_reads = UINT64_MAX;
  for (const CycleRecord& r : records_) min_reads = std::min(min_reads, r.min_reads_during);
  const double nproc = static_cast<double>(nproc_);
  std::vector<double> fit_s = si_.Durations("ensemble.fit");
  size_t epochs = opts_.shard.pipeline.forecaster.epochs;

  return {
      {"trace.parse_ns", per_statement("trace.parse"), "ns"},
      {"sql.template_ns", per_statement("sql.template"), "ns"},
      {"sql.templates", static_cast<double>(sql_templates_), "count"},
      {"serve.offer_ns",
       producer_.offer_events() > 0
           ? si_.TotalNs("serve.offer") / static_cast<double>(producer_.offer_events())
           : 0.0,
       "ns"},
      {"serve.queue_depth_max",
       MaxOf(PerCycle([](const CycleRecord& r) { return static_cast<double>(r.queue_depth_max); })),
       "count"},
      {"serve.drops.full", static_cast<double>(acc_.drops.full), "count"},
      {"serve.drops.quarantined", static_cast<double>(acc_.drops.quarantined()), "count"},
      {"serve.drain_fold_s", median_of("serve.drain_fold"), "s"},
      {"serve.materialize_s", median_of("serve.materialize"), "s"},
      {"serve.history_bins", Median(bins), "count"},
      {"serve.materialized_values", Median(values), "count"},
      {"serve.rebuild_s", median_of("serve.rebuild"), "s"},
      {"serve.rebuild_remainder_s", Median(remainder), "s"},
      {"serve.snapshot_s", median_of("serve.snapshot"), "s"},
      {"serve.shard_retrain_s.p50", Median(retrain_p50), "s"},
      {"serve.shard_retrain_s.max", Median(retrain_max), "s"},
      {"serve.shard_skew", Median(skew), "ratio"},
      {"serve.worker_busy_ratio", Median(busy), "ratio"},
      {"serve.snapshot_copy_ns", Median(copy_p50s_), "ns"},
      {"serve.forecast_trace_ns", Median(forecast_p50s_), "ns"},
      {"serve.read_p99_ns", Median(p99s_), "ns"},
      {"serve.reads_during_retrain",
       min_reads == UINT64_MAX ? 0.0 : static_cast<double>(min_reads), "count"},
      {"serve.checkpoint_save_s", Median(save_s_), "s"},
      {"serve.checkpoint_load_s", Median(restore_s_), "s"},
      {"serve.checkpoint_bytes", static_cast<double>(checkpoint_bytes_), "count"},
      {"serve.publish_lag_s.traced",
       Median(PerCycle([](const CycleRecord& r) { return r.lag_s; })), "s"},
      {"core.build_s", Median(si_.Selfs("core.build")), "s"},
      {"cluster.add_traces_s", median_of("cluster.add_traces"), "s"},
      {"cluster.pairs", Median(pairs), "count"},
      {"cluster.lb_kim_pruned", Median(kim), "count"},
      {"cluster.lb_keogh_pruned", Median(keogh), "count"},
      {"cluster.full_dtw", Median(full), "count"},
      {"cluster.lb_pruned_ratio", Median(pruned), "ratio"},
      {"cluster.pair_ns", Median(pair_ns), "ns"},
      {"cluster.representatives_s", median_of("cluster.representatives"), "s"},
      {"cluster.clusters", Median(clusters), "count"},
      {"cluster.topk_volume_share", Median(share), "ratio"},
      {"dtw.lb_kim_ns", dtw_kim_ns_, "ns"},
      {"dtw.lb_keogh_ns", dtw_keogh_ns_, "ns"},
      {"dtw.full_ns", dtw_full_ns_, "ns"},
      {"ensemble.fits",
       Median(PerCycle([](const CycleRecord& r) { return static_cast<double>(r.fits); })),
       "count"},
      {"ensemble.fit_s.p50", Percentile(fit_s, 0.5).value, "s"},
      {"ensemble.fit_s.max", MaxOf(fit_s), "s"},
      {"models.fit_s.wfgan", fit_wfgan_s_, "s"},
      {"models.fit_s.tcn", fit_tcn_s_, "s"},
      {"models.fit_s.mlp", fit_mlp_s_, "s"},
      {"models.predict_us", median_of("models.predict") * 1e6, "us"},
      {"nn.wfgan_epoch_ms",
       epochs > 0 ? fit_wfgan_s_ * 1e3 / static_cast<double>(epochs) : 0.0, "ms"},
      {"common.threads_peak", static_cast<double>(threads_peak_), "count"},
      {"common.invol_ctx_switches",
       Median(PerCycle([](const CycleRecord& r) { return static_cast<double>(r.invol_ctx); })),
       "count"},
      {"common.cpu_util", Median([&] {
         std::vector<double> u;
         for (const CycleRecord& r : records_) u.push_back(r.cpu_s / (r.lag_s * nproc));
         return u;
       }()),
       "ratio"},
  };
}

Json Bench::Report(const std::vector<Metric>& e2e, const std::vector<Metric>& layers,
                   Json shares) const {
  Json report = Json::Object();
  report.Set("workload", Json::Str(spec_.name));
  report.Set("seed", CountJson(args_.seed));
  report.Set("trace", Json::Bool(args_.trace));
  report.Set("correct", Json::Bool(failures_.empty()));
  Json fail_list = Json::Array();
  for (const std::string& f : failures_) fail_list.Push(Json::Str(f));
  report.Set("check_failures", std::move(fail_list));
  report.Set("end_to_end", MetricsJson(e2e, false));
  if (args_.trace) {
    report.Set("per_layer", MetricsJson(layers, false));
    report.Set("stage_self_time_share", std::move(shares));
    report.Set("sql_front_end_from_side_sample", Json::Bool(sql_side_sample_));
    // Every replayed Rebuild reproduced its snapshot, or the run failed a
    // check; these two say whether the finer replays also matched.
    uint64_t folded = 0, staged = 0;
    for (const Replayed& rp : replays_) {
      folded += rp.result.fold_matches ? 1 : 0;
      staged += rp.result.stages_reproduced ? 1 : 0;
    }
    report.Set("replays", Json::Object()
                              .Set("shard_replays", CountJson(replays_.size()))
                              .Set("drain_fold_matched_history", CountJson(folded))
                              .Set("stages_reproduced_snapshot", CountJson(staged)));
  }
  report.Set("samples", Json::Object()
                            .Set("setup_reps", CountJson(setup_s_.size()))
                            .Set("measured_cycles", CountJson(records_.size()))
                            .Set("read_latency_samples", CountJson(latency_samples_))
                            .Set("read_latency_samples_min_period", CountJson(min_period_samples_))
                            .Set("ingest_chunks", CountJson(acc_.ingest_chunk_rates.size()))
                            .Set("restores", CountJson(restore_s_.size())));

  Json reads = Json::Object().Set("attempted", CountJson(acc_.reads));
  Json sweep = Json::Object().Set("attempted", CountJson(acc_.sweep_reads));
  for (int c = 0; c < kCodeCount; ++c) {
    reads.Set(kReadCodeNames[c], CountJson(acc_.read_codes[c]));
    sweep.Set(kReadCodeNames[c], CountJson(acc_.sweep_codes[c]));
  }
  const serve::IngestDropStats& d = acc_.drops;
  report.Set("operations",
             Json::Object()
                 .Set("offers", Json::Object()
                                    .Set("attempted", CountJson(acc_.offered))
                                    .Set("accepted", CountJson(acc_.accepted))
                                    .Set("dropped", CountJson(acc_.dropped))
                                    .Set("dropped_full", CountJson(d.full))
                                    .Set("dropped_template_id", CountJson(d.template_id))
                                    .Set("dropped_nonfinite", CountJson(d.nonfinite))
                                    .Set("dropped_negative", CountJson(d.negative))
                                    .Set("dropped_stale", CountJson(d.stale))
                                    .Set("dropped_pre_epoch", CountJson(d.pre_epoch))
                                    .Set("dropped_future", CountJson(d.future)))
                 .Set("reads", std::move(reads))
                 .Set("forecast_sweep_reads", std::move(sweep))
                 .Set("shard_retrains", Json::Object()
                                            .Set("scheduled", CountJson(acc_.scheduled))
                                            .Set("completed", CountJson(acc_.completed))
                                            .Set("skipped", CountJson(acc_.skipped))
                                            .Set("failed", CountJson(acc_.failed))
                                            .Set("cancelled", CountJson(acc_.cancelled))));

  Json series = Json::Object();
  series.Set("setup_s", ArrayJson(setup_s_));
  series.Set("publish_lag_s", ArrayJson(PerCycle([](const CycleRecord& r) { return r.lag_s; })));
  series.Set("cycle_cpu_s", ArrayJson(PerCycle([](const CycleRecord& r) { return r.cpu_s; })));
  series.Set("generator_lateness_s",
             ArrayJson(PerCycle([](const CycleRecord& r) { return r.lateness_s; })));
  series.Set("read_p50_ns", ArrayJson(p50s_));
  series.Set("read_p99_ns", ArrayJson(p99s_));
  series.Set("restore_s", ArrayJson(restore_s_));
  series.Set("ingest_bin_rates", ArrayJson(acc_.ingest_bin_rates));
  series.Set("setup_ingest_rates", ArrayJson(acc_.setup_ingest_rates));
  if (args_.trace) {
    // First replayed shard of each cycle: history length and materialize time.
    std::vector<double> bins, materialize;
    std::set<int64_t> seen;
    for (const Replayed& rp : replays_) {
      if (!seen.insert(rp.cycle).second) continue;
      bins.push_back(static_cast<double>(rp.result.history_bins));
      double t = 0;
      for (const Span& s : si_.spans) {
        if (s.name == "serve.materialize" && s.cycle == rp.cycle && s.shard == rp.shard) {
          t += NsToS(s.end_ns - s.begin_ns);
        }
      }
      materialize.push_back(t);
    }
    series.Set("history_bins", ArrayJson(bins));
    series.Set("materialize_s", ArrayJson(materialize));
  }
  report.Set("per_cycle", std::move(series));

  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(w_.digest));
  const dbaugur::core::DBAugurOptions& p = opts_.shard.pipeline;
  report.Set("provenance",
             Json::Object()
                 .Set("nproc", Json::Int(nproc_))
                 .Set("hardware_concurrency", CountJson(std::thread::hardware_concurrency()))
                 .Set("generator_threads", CountJson(1 + spec_.readers))
                 .Set("shard_count", CountJson(shards_))
                 .Set("retrain_workers", CountJson(opts_.retrain_workers))
                 .Set("clustering_threads", CountJson(p.clustering.threads))
                 .Set("threads_peak", Json::Int(threads_peak_))
                 .Set("simd_tier", Json::Str(dbaugur::simd::TierName(dbaugur::simd::ActiveTier())))
                 .Set("cpu_features", Json::Str(dbaugur::simd::CpuFeatures()))
                 .Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE))
                 .Set("compiler", Json::Str(kCompiler))
                 .Set("git_sha", Json::Str(args_.git_sha))
                 .Set("source_digest", Json::Str(args_.source_digest))
                 .Set("seed", CountJson(args_.seed))
                 .Set("seconds", Json::Num(args_.seconds))
                 .Set("input_digest", Json::Str(digest))
                 .Set("offered_units", CountJson(w_.offered_units))
                 .Set("templates", CountJson(spec_.templates))
                 .Set("warmup_bins", CountJson(spec_.warmup_bins))
                 .Set("bin_period_s", Json::Num(spec_.bin_period_s))
                 .Set("top_k", CountJson(p.top_k))
                 .Set("forecaster_window", CountJson(p.forecaster.window))
                 .Set("forecaster_epochs", CountJson(p.forecaster.epochs)));
  return report;
}

int Bench::Run() {
  std::fprintf(stderr,
               "perfbench: %s seed=%llu trace=%d: %zu templates, %zu warm-up bins, "
               "%zu measured cycles, %zu shard(s), %llu offered units, digest %016llx\n",
               spec_.name.c_str(), static_cast<unsigned long long>(args_.seed),
               args_.trace ? 1 : 0, spec_.templates, spec_.warmup_bins, spec_.measured_cycles,
               shards_, static_cast<unsigned long long>(w_.offered_units),
               static_cast<unsigned long long>(w_.digest));
  ColdStarts();
  MeasuredPhase();
  if (args_.trace) {
    ModelAndKernelTimings();
    if (spec_.raw_log) {
      sql_lines_ = producer_.lines();
      sql_templates_ = producer_.registry_size();
    } else {
      SqlSideSample();
    }
  }
  SaveAndRestore(-1);
  std::error_code ec;
  fs::remove_all(ckpt_dir_, ec);
  CloseService(*svc_, svc_offered_, svc_scheduled_, &acc_, &failures_);
  for (const std::string& f : producer_.failures()) failures_.push_back(f);
  if (spec_.raw_log && producer_.registry_size() != spec_.templates) {
    failures_.push_back("templater registered " + std::to_string(producer_.registry_size()) +
                        " templates; the generator defines " + std::to_string(spec_.templates));
  }
  CollectReads();

  const std::vector<Metric> e2e = EndToEnd();
  std::vector<Metric> layers;
  Json shares = Json::Object();
  if (args_.trace) {
    si_.spans = spans_.Snapshot();
    si_.self_ns = SelfTimesNs(si_.spans);
    layers = PerLayer(&shares);
  }
  const bool correct = failures_.empty();
  const Json report = Report(e2e, layers, std::move(shares));

  std::fprintf(stderr, "perfbench: %s %s\n", spec_.name.c_str(),
               correct ? "correct" : "CHECK FAILED");
  for (const std::string& f : failures_) std::fprintf(stderr, "  check failed: %s\n", f.c_str());
  for (const auto& list : {std::cref(e2e), std::cref(layers)}) {
    for (const Metric& m : list.get()) {
      std::fprintf(stderr, "  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

  // attempted: offers, reads and scheduled retrains; failed: drops, reads
  // that errored other than by a miss, and failed retrains.
  const uint64_t attempted = acc_.offered + acc_.reads + acc_.sweep_reads + acc_.scheduled;
  const uint64_t failed = acc_.dropped + acc_.read_codes[kOtherError] +
                          acc_.sweep_codes[kOtherError] + acc_.failed;
  Json result = Json::Object()
                    .Set("correct", Json::Bool(correct))
                    .Set("attempted", CountJson(std::max<uint64_t>(attempted, 1)))
                    .Set("failed", CountJson(failed))
                    .Set("metrics", args_.trace ? MetricsJson(layers, false)
                                                : MetricsJson(e2e, true));

  fs::create_directories(args_.out_dir, ec);
  const std::string stem = (fs::path(args_.out_dir) /
                            (spec_.name + "-seed" + std::to_string(args_.seed) + "-trace" +
                             std::to_string(args_.trace ? 1 : 0)))
                               .string();
  std::ofstream(stem + ".json") << report.Dump() << "\n";
  if (args_.trace) {
    std::ofstream out(stem + "-spans.jsonl");
    for (const Span& s : si_.spans) {
      out << Json::Object()
                 .Set("name", Json::Str(s.name))
                 .Set("id", Json::Int(s.id))
                 .Set("parent", Json::Int(s.parent))
                 .Set("cycle", Json::Int(s.cycle))
                 .Set("shard", Json::Int(s.shard))
                 .Set("begin_ns", Json::Int(s.begin_ns))
                 .Set("end_ns", Json::Int(s.end_ns))
                 .Dump()
          << "\n";
    }
  }
  std::printf("%s\n%s\n", report.Dump().c_str(), result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string err;
  if (!perfbench::ParseArgs(argc, argv, &args, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  perfbench::Workload w;
  if (!perfbench::MakeWorkload(args.workload, args.seed, args.seconds, &w, &err)) {
    std::fprintf(stderr, "perfbench: %s\n", err.c_str());
    return 2;
  }
  return perfbench::Bench(args, w).Run();
}
