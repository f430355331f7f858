// Online serving benchmark: ingest throughput and read latency under an
// active retrain, with machine-readable output.
//
// Five measurements:
//   1. ingest: N producer threads Offer() synthetic events into a
//      TraceIngestor while one consumer drains, reporting sustained
//      events/sec and the drop count under the bounded queue.
//   2. log_ingest: the raw-log front end on one thread. A
//      workloads::GenerateQueryLog(BusTrackerTemplates()) log, as
//      "<epoch> <sql>" text in 16-line chunks, goes through
//      trace::ParseQueryLog, then sql::TemplateRegistry::Record, then Offer
//      into a single-shard ShardedForecastService. Reports lines/sec and ns
//      per statement for each step. The run FAILS (exit 1) unless the
//      registry finds exactly the six BusTracker templates.
//   3. reads_under_retrain: a reader hammers snapshot(0)->ForecastCluster()
//      on a single-shard ShardedForecastService while a trainer thread runs
//      back-to-back shard(0).RetrainOnce() cycles. Every read is timed;
//      p50/p99 come from the full distribution and the count of reads
//      completed *while a retrain was in flight* demonstrates that the
//      snapshot read path never blocks on training (exit 1 if none did).
//   4. fault_hook: per-iteration cost of a DBAUGUR_FAULT_POINT with no
//      schedule installed, against an identical loop without the hook. The
//      run FAILS (exit 1) if the disabled hook costs more than
//      kMaxHookOverheadNs per call — the hooks on the ingest/retrain/save
//      paths must stay one relaxed load + a predicted branch, never a lock.
//   5. trace_store: one trace::TraceBinner folds 20000 templates x 64 bins,
//      one event per template per bin with 2% of them 1-2 bins late, as a
//      shard's history does. Reports fold ns per event, Traces(), Save and
//      Load milliseconds, the saved bytes and, where glibc's mallinfo2
//      reports the system allocator, heap bytes per (template, bin) entry.
//      No gate.
//
// Output is a single JSON object (stdout, or --out FILE). `--smoke` shrinks
// the workload so CI can run it in seconds. `--git-sha SHA` records the
// commit measured (`--git-sha $(git rev-parse HEAD)`).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/binio.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "serve/ingestor.h"
#include "serve/sharded_service.h"
#include "sql/templater.h"
#include "trace/extractor.h"
#include "workloads/query_log.h"

// Heap accounting for the trace_store leg: glibc 2.33+'s mallinfo2, and only
// with the system allocator (a sanitizer's does not report through it).
#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#if __GLIBC_PREREQ(2, 33)
#define DBAUGUR_BENCH_HEAP_IN_USE 1
#endif
#endif

namespace dbaugur::bench {
namespace {

constexpr int64_t kInterval = 600;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct IngestResult {
  int producers = 0;
  uint64_t events = 0;
  uint64_t dropped = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
};

IngestResult RunIngestCase(bool smoke) {
  IngestResult r;
  r.producers = 2;
  const uint64_t per_producer = smoke ? 50'000 : 2'000'000;
  serve::IngestorOptions qopts;
  qopts.capacity = 65536;
  qopts.max_templates = 64;
  serve::TraceIngestor queue(qopts);

  std::atomic<bool> done{false};
  std::thread consumer([&queue, &done] {
    std::vector<serve::TraceEvent> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      if (queue.Drain(&batch) == 0) std::this_thread::yield();
    }
    queue.Drain(&batch);  // leftovers
  });

  double t0 = NowSeconds();
  std::vector<std::thread> producers;
  for (int p = 0; p < r.producers; ++p) {
    producers.emplace_back([&queue, per_producer, p] {
      for (uint64_t i = 0; i < per_producer; ++i) {
        serve::TraceEvent e;
        e.template_id = static_cast<uint32_t>(i % 8);
        e.timestamp = static_cast<int64_t>(i / 8) * kInterval + p;
        e.count = 1.0;
        queue.Offer(e);
      }
    });
  }
  for (auto& t : producers) t.join();
  double t1 = NowSeconds();
  done.store(true, std::memory_order_release);
  consumer.join();

  r.events = queue.accepted();
  r.dropped = queue.dropped();
  r.seconds = t1 - t0;
  r.events_per_sec = r.seconds > 0.0
                         ? static_cast<double>(r.events) / r.seconds
                         : 0.0;
  return r;
}

struct LogIngestResult {
  size_t lines = 0;
  size_t templates = 0;
  uint64_t accepted = 0;
  double seconds = 0.0;
  double lines_per_sec = 0.0;
  double parse_ns = 0.0;     // per statement
  double template_ns = 0.0;  // per statement
  double offer_ns = 0.0;     // per statement
};

constexpr size_t kLogChunkLines = 16;
constexpr size_t kBusTrackerTemplates = 6;

LogIngestResult RunLogIngestCase(bool smoke) {
  LogIngestResult r;
  workloads::QueryLogOptions lopts;
  lopts.days = smoke ? 1 : 14;
  lopts.interval_seconds = kInterval;
  const std::vector<trace::LogEntry> log =
      workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), lopts);
  // Render the text before the clock starts: it stands for bytes read.
  std::vector<std::string> chunks;
  for (size_t i = 0; i < log.size(); ++i) {
    if (i % kLogChunkLines == 0) chunks.emplace_back();
    chunks.back() += std::to_string(log[i].timestamp) + " " + log[i].sql + "\n";
  }
  serve::ShardedServeOptions sso;
  sso.shard.bin_interval_seconds = kInterval;
  sso.shard.max_templates = 64;
  sso.shard.queue_capacity = log.size() + 1;
  sso.shard_count = 1;
  serve::ShardedForecastService svc(sso);
  sql::TemplateRegistry registry;
  std::vector<uint32_t> ids;
  int64_t parse_ns = 0, template_ns = 0, offer_ns = 0;
  auto ns_since = [](double t0) {
    return static_cast<int64_t>((NowSeconds() - t0) * 1e9);
  };
  for (const std::string& text : chunks) {
    double t0 = NowSeconds();
    auto entries = trace::ParseQueryLog(text);
    parse_ns += ns_since(t0);
    if (!entries.ok()) {
      std::fprintf(stderr, "serve_throughput: log_ingest parse failed: %s\n",
                   entries.status().ToString().c_str());
      return r;
    }
    t0 = NowSeconds();
    ids.clear();
    for (const trace::LogEntry& e : *entries) {
      auto id = registry.Record(e.sql);
      ids.push_back(id.ok() ? static_cast<uint32_t>(*id) : UINT32_MAX);
    }
    template_ns += ns_since(t0);
    t0 = NowSeconds();
    for (size_t i = 0; i < ids.size(); ++i) {
      r.accepted += svc.Offer({ids[i], (*entries)[i].timestamp, 1.0}) ? 1 : 0;
    }
    offer_ns += ns_since(t0);
    r.lines += entries->size();
  }
  r.templates = registry.size();
  const double lines = static_cast<double>(std::max<size_t>(r.lines, 1));
  r.seconds = static_cast<double>(parse_ns + template_ns + offer_ns) * 1e-9;
  r.lines_per_sec =
      r.seconds > 0.0 ? static_cast<double>(r.lines) / r.seconds : 0.0;
  r.parse_ns = static_cast<double>(parse_ns) / lines;
  r.template_ns = static_cast<double>(template_ns) / lines;
  r.offer_ns = static_cast<double>(offer_ns) / lines;
  return r;
}

struct ReadResult {
  uint64_t reads = 0;
  uint64_t reads_during_retrain = 0;
  int retrains = 0;
  double retrain_mean_ms = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

ReadResult RunReadsUnderRetrain(bool smoke) {
  ReadResult r;
  serve::ServeOptions opts;
  opts.pipeline.clustering.radius = 6.0;
  opts.pipeline.clustering.min_size = 2;
  opts.pipeline.clustering.dtw.window = 4;
  opts.pipeline.top_k = 3;
  opts.pipeline.forecaster.window = smoke ? 6 : 24;
  opts.pipeline.forecaster.horizon = 1;
  opts.pipeline.forecaster.epochs = smoke ? 2 : 8;
  opts.pipeline.forecaster.batch_size = 16;
  opts.bin_interval_seconds = kInterval;
  serve::ShardedServeOptions sso;
  sso.shard = opts;
  sso.shard_count = 1;
  serve::ShardedForecastService svc(sso);
  serve::ServiceShard& shard = svc.shard(0);

  // Seed enough history to train, then publish generation 1 synchronously.
  const int64_t bins = smoke ? 16 : 48;
  for (int64_t b = 0; b < bins; ++b) {
    for (uint32_t t = 0; t < 3; ++t) {
      double phase = static_cast<double>(b) * 0.4 + t;
      svc.Offer({t, b * kInterval, 50.0 + 20.0 * std::sin(phase)});
    }
  }
  if (!shard.RetrainOnce().ok() || shard.generation() == 0) {
    std::fprintf(stderr, "serve_throughput: warm-up retrain failed\n");
    return r;
  }

  const int retrain_cycles = smoke ? 2 : 6;
  std::atomic<bool> retrain_active{false};
  std::atomic<bool> done{false};
  double retrain_total_s = 0.0;
  std::thread trainer([&] {
    for (int i = 0; i < retrain_cycles; ++i) {
      double t0 = NowSeconds();
      retrain_active.store(true, std::memory_order_release);
      Status st = shard.RetrainOnce();
      retrain_active.store(false, std::memory_order_release);
      retrain_total_s += NowSeconds() - t0;
      if (!st.ok()) break;
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<double> latencies_ns;
  latencies_ns.reserve(1 << 20);
  double sink = 0.0;
  while (!done.load(std::memory_order_acquire)) {
    bool in_retrain = retrain_active.load(std::memory_order_acquire);
    double t0 = NowSeconds();
    auto snap = svc.snapshot(0);
    auto f = snap->ForecastCluster(0);
    double t1 = NowSeconds();
    if (f.ok()) sink += *f;
    latencies_ns.push_back((t1 - t0) * 1e9);
    if (in_retrain) ++r.reads_during_retrain;
  }
  trainer.join();
  if (sink == 12345.6789) std::fprintf(stderr, "~");

  r.reads = latencies_ns.size();
  r.retrains = retrain_cycles;
  r.retrain_mean_ms = retrain_total_s * 1e3 / retrain_cycles;
  std::sort(latencies_ns.begin(), latencies_ns.end());
  if (!latencies_ns.empty()) {
    r.p50_ns = latencies_ns[latencies_ns.size() / 2];
    r.p99_ns = latencies_ns[latencies_ns.size() * 99 / 100];
  }
  return r;
}

// Inactive fault hooks must be unmeasurable against real work. An xorshift
// dependency chain (~a few cycles per step) stands in for the cheapest hot
// path a hook sits on; anything lock-shaped sneaking into DBAUGUR_FAULT_POINT
// shows up as tens of nanoseconds against this baseline.
constexpr double kMaxHookOverheadNs = 10.0;

struct HookResult {
  uint64_t iters = 0;
  double baseline_ns = 0.0;  // ns per iteration, plain loop
  double hook_ns = 0.0;      // ns per iteration, loop + disabled fault point
  double overhead_ns = 0.0;  // max(0, hook - baseline)
};

__attribute__((noinline)) uint64_t SpinBaseline(uint64_t iters) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

__attribute__((noinline)) uint64_t SpinWithHook(uint64_t iters) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint64_t i = 0; i < iters; ++i) {
    if (DBAUGUR_FAULT_POINT("bench.serve.hook")) ++x;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

HookResult RunFaultHookCase(bool smoke) {
  HookResult r;
  r.iters = smoke ? 8'000'000 : 64'000'000;
  // Measure the production configuration: hooks compiled in, nothing armed.
  fault::Reset();

  uint64_t sink = 0;
  double best_base = 1e300, best_hook = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = NowSeconds();
    sink ^= SpinBaseline(r.iters);
    double t1 = NowSeconds();
    sink ^= SpinWithHook(r.iters);
    double t2 = NowSeconds();
    best_base = std::min(best_base, t1 - t0);
    best_hook = std::min(best_hook, t2 - t1);
  }
  if (sink == 12345) std::fprintf(stderr, "~");

  r.baseline_ns = best_base * 1e9 / static_cast<double>(r.iters);
  r.hook_ns = best_hook * 1e9 / static_cast<double>(r.iters);
  r.overhead_ns = std::max(0.0, r.hook_ns - r.baseline_ns);
  return r;
}

struct TraceStoreResult {
  uint32_t templates = 0;
  int64_t bins = 0;
  uint64_t events = 0;
  uint64_t late_events = 0;
  uint64_t entries = 0;  // distinct (template, bin) pairs held
  double fold_ns = 0.0;  // per event
  double traces_ms = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  size_t saved_bytes = 0;
  double heap_bytes_per_entry = -1.0;  // < 0: not measured
};

#if defined(DBAUGUR_BENCH_HEAP_IN_USE)
int64_t HeapInUse() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}
#endif

TraceStoreResult RunTraceStoreCase(bool smoke) {
  TraceStoreResult r;
  r.templates = smoke ? 2000 : 20000;
  r.bins = 64;
  // The events in arrival order: bin by bin, every template once, 2% of
  // them for a bin 1-2 behind.
  Rng rng(29);
  std::vector<serve::TraceEvent> events;
  events.reserve(static_cast<size_t>(r.templates) *
                 static_cast<size_t>(r.bins));
  for (int64_t bin = 0; bin < r.bins; ++bin) {
    for (uint32_t t = 0; t < r.templates; ++t) {
      int64_t at = bin;
      if (bin >= 2 && rng.Bernoulli(0.02)) {
        at -= rng.UniformInt(1, 2);
        ++r.late_events;
      }
      events.push_back({t, at * kInterval, 1.0});
    }
  }
  r.events = events.size();

#if defined(DBAUGUR_BENCH_HEAP_IN_USE)
  const int64_t heap_before = HeapInUse();
#endif
  trace::TraceBinner binner(kInterval);
  double t0 = NowSeconds();
  for (const serve::TraceEvent& e : events) binner.Fold(e);
  r.fold_ns = (NowSeconds() - t0) * 1e9 / static_cast<double>(r.events);
#if defined(DBAUGUR_BENCH_HEAP_IN_USE)
  const int64_t heap_bytes = HeapInUse() - heap_before;
#endif

  t0 = NowSeconds();
  auto traces = binner.Traces();
  r.traces_ms = (NowSeconds() - t0) * 1e3;
  if (traces.ok()) {
    // Every count is positive, so the non-zero values are the entries.
    for (const ts::Series& t : *traces) {
      r.entries += static_cast<uint64_t>(
          std::count_if(t.values().begin(), t.values().end(),
                        [](double v) { return v != 0.0; }));
    }
  }
#if defined(DBAUGUR_BENCH_HEAP_IN_USE)
  if (r.entries > 0) {
    r.heap_bytes_per_entry =
        static_cast<double>(heap_bytes) / static_cast<double>(r.entries);
  }
#endif

  t0 = NowSeconds();
  BufWriter w;
  binner.Save(&w);
  std::vector<uint8_t> blob = w.Take();
  r.save_ms = (NowSeconds() - t0) * 1e3;
  r.saved_bytes = blob.size();

  trace::TraceBinner restored(kInterval);
  BufReader reader(blob);
  t0 = NowSeconds();
  Status loaded = restored.Load(&reader);
  r.load_ms = (NowSeconds() - t0) * 1e3;
  if (!loaded.ok()) {
    std::fprintf(stderr, "serve_throughput: trace_store load failed: %s\n",
                 loaded.ToString().c_str());
  }
  return r;
}

void WriteJson(std::FILE* out, bool smoke, const char* git_sha,
               const IngestResult& ing, const LogIngestResult& li,
               const ReadResult& rd, const HookResult& hk,
               const TraceStoreResult& tsr) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"serve_throughput\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  WriteSimdProvenance(out);
  WriteBuildProvenance(out, git_sha);
  std::fprintf(out,
               "  \"ingest\": {\"producers\": %d, \"events\": %llu, "
               "\"dropped\": %llu, \"seconds\": %.3f, "
               "\"events_per_sec\": %.0f},\n",
               ing.producers, static_cast<unsigned long long>(ing.events),
               static_cast<unsigned long long>(ing.dropped), ing.seconds,
               ing.events_per_sec);
  std::fprintf(out,
               "  \"log_ingest\": {\"lines\": %zu, \"chunk_lines\": %zu, "
               "\"templates\": %zu, \"accepted\": %llu, \"seconds\": %.3f, "
               "\"lines_per_sec\": %.0f, \"parse_ns_per_line\": %.1f, "
               "\"template_ns_per_line\": %.1f, \"offer_ns_per_line\": %.1f},\n",
               li.lines, kLogChunkLines, li.templates,
               static_cast<unsigned long long>(li.accepted), li.seconds,
               li.lines_per_sec, li.parse_ns, li.template_ns, li.offer_ns);
  std::fprintf(out,
               "  \"reads_under_retrain\": {\"reads\": %llu, "
               "\"reads_during_retrain\": %llu, \"retrains\": %d, "
               "\"retrain_mean_ms\": %.2f, \"p50_ns\": %.0f, "
               "\"p99_ns\": %.0f},\n",
               static_cast<unsigned long long>(rd.reads),
               static_cast<unsigned long long>(rd.reads_during_retrain),
               rd.retrains, rd.retrain_mean_ms, rd.p50_ns, rd.p99_ns);
  std::fprintf(out,
               "  \"fault_hook\": {\"iters\": %llu, "
               "\"baseline_ns_per_op\": %.3f, \"hook_ns_per_op\": %.3f, "
               "\"overhead_ns_per_op\": %.3f},\n",
               static_cast<unsigned long long>(hk.iters), hk.baseline_ns,
               hk.hook_ns, hk.overhead_ns);
  std::fprintf(out,
               "  \"trace_store\": {\"templates\": %u, \"bins\": %lld, "
               "\"events\": %llu, \"late_events\": %llu, \"entries\": %llu, "
               "\"fold_ns_per_event\": %.1f, \"traces_ms\": %.2f, "
               "\"save_ms\": %.2f, \"load_ms\": %.2f, \"saved_bytes\": %zu",
               tsr.templates, static_cast<long long>(tsr.bins),
               static_cast<unsigned long long>(tsr.events),
               static_cast<unsigned long long>(tsr.late_events),
               static_cast<unsigned long long>(tsr.entries), tsr.fold_ns,
               tsr.traces_ms, tsr.save_ms, tsr.load_ms, tsr.saved_bytes);
  if (tsr.heap_bytes_per_entry >= 0.0) {
    std::fprintf(out, ", \"heap_bytes_per_entry\": %.1f",
                 tsr.heap_bytes_per_entry);
  }
  std::fprintf(out, "}\n}\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  const char* git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--git-sha") == 0 && i + 1 < argc) {
      git_sha = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: serve_throughput [--smoke] [--out FILE] "
                   "[--git-sha SHA]\n");
      return 2;
    }
  }

  IngestResult ing = RunIngestCase(smoke);
  std::fprintf(stderr, "ingest             %12.0f events/s  (%llu dropped)\n",
               ing.events_per_sec,
               static_cast<unsigned long long>(ing.dropped));
  LogIngestResult li = RunLogIngestCase(smoke);
  std::fprintf(stderr,
               "log_ingest         %12.0f lines/s   parse %6.1f ns  template "
               "%6.1f ns  offer %6.1f ns per line  (%zu templates)\n",
               li.lines_per_sec, li.parse_ns, li.template_ns, li.offer_ns,
               li.templates);
  if (li.templates != kBusTrackerTemplates) {
    std::fprintf(stderr,
                 "serve_throughput: the templater found %zu templates in the "
                 "BusTracker log, expected %zu\n",
                 li.templates, kBusTrackerTemplates);
    return 1;
  }
  ReadResult rd = RunReadsUnderRetrain(smoke);
  std::fprintf(stderr,
               "reads_under_retrain p50 %8.0f ns  p99 %8.0f ns  "
               "%llu reads during %d retrains\n",
               rd.p50_ns, rd.p99_ns,
               static_cast<unsigned long long>(rd.reads_during_retrain),
               rd.retrains);
  if (rd.reads_during_retrain == 0) {
    std::fprintf(stderr,
                 "serve_throughput: no reads completed during a retrain — "
                 "the snapshot read path blocked on training\n");
    return 1;
  }
  HookResult hk = RunFaultHookCase(smoke);
  std::fprintf(stderr,
               "fault_hook          baseline %5.2f ns/op  with hook %5.2f "
               "ns/op  overhead %5.2f ns/op\n",
               hk.baseline_ns, hk.hook_ns, hk.overhead_ns);
  if (hk.overhead_ns > kMaxHookOverheadNs) {
    std::fprintf(stderr,
                 "serve_throughput: disabled fault hook costs %.2f ns/op "
                 "(budget %.1f) — the hot-path hook grew a lock or lookup\n",
                 hk.overhead_ns, kMaxHookOverheadNs);
    return 1;
  }

  TraceStoreResult tsr = RunTraceStoreCase(smoke);
  std::fprintf(stderr,
               "trace_store        fold %5.1f ns/event  traces %7.2f ms  save "
               "%6.2f ms  load %6.2f ms  %zu bytes",
               tsr.fold_ns, tsr.traces_ms, tsr.save_ms, tsr.load_ms,
               tsr.saved_bytes);
  if (tsr.heap_bytes_per_entry >= 0.0) {
    std::fprintf(stderr, "  %.1f heap B/entry", tsr.heap_bytes_per_entry);
  }
  std::fprintf(stderr, "\n");

  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
  }
  WriteJson(out, smoke, git_sha, ing, li, rd, hk, tsr);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace dbaugur::bench

int main(int argc, char** argv) { return dbaugur::bench::Main(argc, argv); }
