// Sharded serving scale benchmark: >= 100k clusters pushed through
// ShardedForecastService at shard counts {1, 4, 16, 64}, with
// machine-readable output.
//
// Each template carries a distinct 4-level step waveform (two bits of
// Mix64(id) per bin), so under z-normalized DTW with a tight radius nearly
// every template is its own singleton cluster — the full run therefore trains
// and serves >= 100k clusters, the paper's "diversified workloads" pushed to
// scale. Per shard-count configuration the bench measures:
//   1. ingest: single-producer Offer() throughput through the hash router
//      (aggregate events/s across all shards, plus drops).
//   2. reads under retrain: a reader sweeps every shard round-robin timing
//      snapshot()->ForecastCluster() reads while one scheduler cycle retrains
//      every shard; per-shard p50/p99 latency (strided-subsampled over the
//      whole cycle) and the count of reads that completed while the retrain
//      cycle was in flight. The run FAILS (exit 1) if any shard's reads
//      stall (zero reads during the in-flight cycle) — the shard read path
//      must never block on training — and, in full mode, if any leg's worst
//      p99 exceeds 2x the single-shard p99 measured by this same process
//      (a self-relative baseline; the committed JSON is provenance, not a
//      gate).
//   3. retrain lag: each shard's drain->train->publish duration; the maximum
//      over shards is the staleness a reader can see. More shards means less
//      history per retrain, so max lag must decrease monotonically from 1 to
//      16 shards (enforced in full mode, where durations dwarf noise).
//   4. worker scaling: at a fixed 16 shards the cycle is re-run with retrain
//      worker pools of 1, 2, and 4; in full mode (on >= 4 cores) the
//      workers=4 cycle wall time must be < 0.5x the workers=1 cycle.
//
// Output is a single JSON object (stdout, or --out FILE). `--smoke` shrinks
// the template count so CI can run it in seconds.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "common/hashing.h"
#include "serve/sharded_service.h"

namespace dbaugur::bench {
namespace {

constexpr int64_t kInterval = 600;
constexpr size_t kShardCounts[] = {1, 4, 16, 64};
/// Worker-scaling legs: fixed shard count, varying retrain worker counts.
/// 16 shards gives each of 4 workers four retrains per cycle — enough
/// parallel slack that the workers=4 < 0.5x workers=1 wall-time gate (full
/// mode) measures the pool, not scheduling remainder effects.
constexpr size_t kWorkerLegShards = 16;
constexpr size_t kWorkerCounts[] = {1, 2, 4};
/// Read-p99 gate: self-relative. The shard_count=1 leg measured in THIS
/// process is the baseline; every other leg's worst shard p99 must stay
/// within 2x of it. (The committed JSON's numbers are provenance of past
/// runs, not a gate — a constant budget derived from another machine's run
/// made the gate trip on hardware it never calibrated for.)
constexpr double kReadP99BudgetMultiple = 2.0;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ScaleParams {
  size_t templates = 0;
  int64_t bins_per_wave = 0;  ///< Two waves: warm-up train, measured cycle.
};

/// Template `id`'s count at bin `b`: two bits of Mix64(id) select one of four
/// levels, giving ~4^bins distinct step shapes. Adjacent levels sit ~0.9
/// z-units apart — any single-bin difference already exceeds the clustering
/// radius — and with four symbols, distinct patterns that are warp-equivalent
/// under the one-step DTW band are vanishingly rare (binary patterns are
/// not: entire run-length families collapse).
double CountAt(uint32_t id, int64_t b, int64_t total_bins) {
  uint64_t level = (Mix64(id) >> (2 * (b % total_bins))) & 3;
  return 10.0 + 30.0 * static_cast<double>(level);
}

/// Bounded-memory uniform subsampler: keeps at most `cap` samples spread
/// evenly over the whole stream by doubling the sampling stride (decimating
/// the retained samples) whenever the buffer fills. "First N" sampling is
/// wrong for this bench: the measured cycle's earliest reads carry a
/// cold-cache tail, and at high shard counts a small per-shard cap confines
/// the window to exactly that transient (observed at 64 shards: p99 162 ns
/// from the first ~13% of the cycle vs 77 ns over the whole cycle).
class StridedSampler {
 public:
  explicit StridedSampler(size_t cap) : cap_(cap) { samples_.reserve(cap); }
  void Add(double x) {
    if (n_++ % stride_ != 0) return;
    if (samples_.size() == cap_) {
      for (size_t j = 1; 2 * j < samples_.size(); ++j) {
        samples_[j] = samples_[2 * j];
      }
      samples_.resize((samples_.size() + 1) / 2);
      stride_ *= 2;
    }
    samples_.push_back(x);
  }
  std::vector<double>& samples() { return samples_; }

 private:
  std::vector<double> samples_;
  size_t cap_;
  uint64_t stride_ = 1;
  uint64_t n_ = 0;
};

struct ShardReadStats {
  uint64_t reads = 0;
  uint64_t reads_during_retrain = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double retrain_s = 0.0;   ///< This shard's drain->publish duration.
  size_t clusters = 0;      ///< Distinct cluster ids in the shard's snapshot.
};

struct ConfigResult {
  size_t shard_count = 0;
  size_t workers = 1;  ///< Retrain workers draining the measured cycle.
  size_t clusters_total = 0;
  uint64_t ingest_events = 0;
  uint64_t ingest_dropped = 0;
  double ingest_seconds = 0.0;
  double ingest_events_per_sec = 0.0;
  double cycle_seconds = 0.0;        ///< Wall time of the measured cycle.
  double max_retrain_lag_s = 0.0;    ///< Max per-shard retrain duration.
  double max_p99_ns = 0.0;           ///< Worst shard's read p99.
  std::vector<ShardReadStats> shards;
};

serve::ShardedServeOptions MakeOptions(const ScaleParams& p, size_t shards,
                                       size_t workers) {
  serve::ShardedServeOptions so;
  so.shard_count = shards;
  so.retrain_workers = workers;
  serve::ServeOptions& o = so.shard;
  // Tight radius + tiny band: identical patterns merge (distance 0), distinct
  // bit patterns stay apart, so cluster count tracks template count.
  o.pipeline.clustering.radius = 0.5;
  o.pipeline.clustering.min_size = 2;
  o.pipeline.clustering.dtw.window = 1;
  o.pipeline.top_k = 4;
  o.pipeline.forecaster.window = 6;
  o.pipeline.forecaster.horizon = 1;
  o.pipeline.forecaster.epochs = 2;
  o.pipeline.forecaster.batch_size = 16;
  o.bin_interval_seconds = kInterval;
  o.max_templates = p.templates;
  // One wave of events sits queued per shard before each cycle drains it.
  o.queue_capacity =
      (p.templates * static_cast<size_t>(p.bins_per_wave)) / shards * 2 + 4096;
  return so;
}

/// Offers one wave of bins for every template; returns elapsed seconds.
double OfferWave(serve::ShardedForecastService* svc, const ScaleParams& p,
                 int64_t first_bin, uint64_t* dropped) {
  int64_t total_bins = 2 * p.bins_per_wave;
  double t0 = NowSeconds();
  for (int64_t b = first_bin; b < first_bin + p.bins_per_wave; ++b) {
    for (uint32_t id = 0; id < p.templates; ++id) {
      serve::TraceEvent e;
      e.template_id = id;
      e.timestamp = b * kInterval + 30;
      e.count = CountAt(id, b, total_bins);
      if (!svc->Offer(e)) ++*dropped;
    }
  }
  return NowSeconds() - t0;
}

ConfigResult RunConfig(const ScaleParams& p, size_t shard_count,
                       size_t workers = 1) {
  ConfigResult r;
  r.shard_count = shard_count;
  r.workers = workers;
  serve::ShardedForecastService svc(MakeOptions(p, shard_count, workers));

  // Wave 1 + warm-up cycle: every shard publishes a trained snapshot so the
  // measured reads exercise real forecasts, and the measured cycle below is
  // a steady-state retrain, not a cold start.
  r.ingest_seconds += OfferWave(&svc, p, 0, &r.ingest_dropped);
  (void)svc.RetrainCycle();

  // Wave 2: every shard pending again (the scheduler is work-conserving).
  r.ingest_seconds += OfferWave(&svc, p, p.bins_per_wave, &r.ingest_dropped);
  r.ingest_events = svc.stats().events_accepted;
  r.ingest_events_per_sec =
      r.ingest_seconds > 0.0
          ? static_cast<double>(r.ingest_events) / r.ingest_seconds
          : 0.0;

  // Measured cycle: reader sweeps all shards round-robin while the scheduler
  // retrains every one of them. Latency samples are strided-subsampled per
  // shard over the whole cycle under a fixed memory cap (every read still
  // counts toward reads/reads_during_retrain).
  const size_t sample_cap =
      std::max<size_t>(8192, (size_t{1} << 22) / shard_count);
  std::vector<StridedSampler> lat(shard_count, StridedSampler(sample_cap));
  r.shards.assign(shard_count, ShardReadStats{});

  std::atomic<bool> retrain_active{false};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> sweeps{0};
  std::thread reader([&] {
    double sink = 0.0;
    for (uint64_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      size_t s = i % shard_count;
      bool in_retrain = retrain_active.load(std::memory_order_acquire);
      double t0 = NowSeconds();
      auto snap = svc.snapshot(s);
      auto f = snap->ForecastCluster(0);
      double t1 = NowSeconds();
      if (f.ok()) sink += *f;
      ++r.shards[s].reads;
      if (in_retrain) ++r.shards[s].reads_during_retrain;
      lat[s].Add((t1 - t0) * 1e9);
      if (s == shard_count - 1) sweeps.fetch_add(1, std::memory_order_release);
    }
    if (sink == 12345.6789) std::fprintf(stderr, "~");
  });
  // Don't start the cycle until the reader has demonstrably swept every
  // shard once — guarantees it is live while the retrain is in flight.
  while (sweeps.load(std::memory_order_acquire) == 0) std::this_thread::yield();

  double c0 = NowSeconds();
  retrain_active.store(true, std::memory_order_release);
  std::vector<size_t> order = svc.RetrainCycle();
  retrain_active.store(false, std::memory_order_release);
  r.cycle_seconds = NowSeconds() - c0;
  done.store(true, std::memory_order_release);
  reader.join();
  if (order.size() != shard_count) {
    std::fprintf(stderr,
                 "serve_scale: cycle scheduled %zu/%zu shards (every shard "
                 "had pending events)\n",
                 order.size(), shard_count);
  }

  for (size_t s = 0; s < shard_count; ++s) {
    ShardReadStats& st = r.shards[s];
    std::vector<double>& samples = lat[s].samples();
    std::sort(samples.begin(), samples.end());
    if (!samples.empty()) {
      st.p50_ns = samples[samples.size() / 2];
      st.p99_ns = samples[samples.size() * 99 / 100];
    }
    st.retrain_s = svc.shard(s).last_retrain_seconds();
    auto snap = svc.snapshot(s);
    std::unordered_set<int> ids(snap->trace_cluster.begin(),
                                snap->trace_cluster.end());
    st.clusters = ids.size();
    r.clusters_total += st.clusters;
    r.max_retrain_lag_s = std::max(r.max_retrain_lag_s, st.retrain_s);
    r.max_p99_ns = std::max(r.max_p99_ns, st.p99_ns);
  }
  return r;
}

void WriteConfigs(std::FILE* out, const char* key,
                  const std::vector<ConfigResult>& configs, bool trailing) {
  std::fprintf(out, "  \"%s\": [\n", key);
  for (size_t c = 0; c < configs.size(); ++c) {
    const ConfigResult& r = configs[c];
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"shard_count\": %zu,\n", r.shard_count);
    std::fprintf(out, "      \"workers\": %zu,\n", r.workers);
    std::fprintf(out, "      \"clusters_total\": %zu,\n", r.clusters_total);
    std::fprintf(out,
                 "      \"ingest\": {\"events\": %llu, \"dropped\": %llu, "
                 "\"seconds\": %.3f, \"events_per_sec\": %.0f},\n",
                 static_cast<unsigned long long>(r.ingest_events),
                 static_cast<unsigned long long>(r.ingest_dropped),
                 r.ingest_seconds, r.ingest_events_per_sec);
    std::fprintf(out,
                 "      \"retrain\": {\"cycle_seconds\": %.3f, "
                 "\"max_retrain_lag_s\": %.4f},\n",
                 r.cycle_seconds, r.max_retrain_lag_s);
    std::fprintf(out, "      \"max_p99_ns\": %.0f,\n", r.max_p99_ns);
    std::fprintf(out, "      \"shards\": [\n");
    for (size_t s = 0; s < r.shards.size(); ++s) {
      const ShardReadStats& st = r.shards[s];
      std::fprintf(out,
                   "        {\"shard\": %zu, \"clusters\": %zu, "
                   "\"reads\": %llu, \"reads_during_retrain\": %llu, "
                   "\"p50_ns\": %.0f, \"p99_ns\": %.0f, "
                   "\"retrain_s\": %.4f}%s\n",
                   s, st.clusters,
                   static_cast<unsigned long long>(st.reads),
                   static_cast<unsigned long long>(st.reads_during_retrain),
                   st.p50_ns, st.p99_ns, st.retrain_s,
                   s + 1 < r.shards.size() ? "," : "");
    }
    std::fprintf(out, "      ]\n");
    std::fprintf(out, "    }%s\n", c + 1 < configs.size() ? "," : "");
  }
  std::fprintf(out, "  ]%s\n", trailing ? "," : "");
}

void WriteJson(std::FILE* out, bool smoke, const ScaleParams& p,
               double read_p99_baseline_ns,
               const std::vector<ConfigResult>& configs,
               const std::vector<ConfigResult>& worker_configs) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"serve_scale\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  WriteSimdProvenance(out);
  std::fprintf(out, "  \"templates\": %zu,\n", p.templates);
  std::fprintf(out, "  \"bins\": %lld,\n",
               static_cast<long long>(2 * p.bins_per_wave));
  // Self-relative gate provenance: the single-shard p99 measured in this
  // process, and the multiple every other leg is held to.
  std::fprintf(out, "  \"read_p99_baseline_ns\": %.0f,\n",
               read_p99_baseline_ns);
  std::fprintf(out, "  \"read_p99_budget_multiple\": %.1f,\n",
               kReadP99BudgetMultiple);
  WriteConfigs(out, "configs", configs, /*trailing=*/!worker_configs.empty());
  if (!worker_configs.empty()) {
    WriteConfigs(out, "worker_configs", worker_configs, /*trailing=*/false);
  }
  std::fprintf(out, "}\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  size_t only_shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      // Run a single shard-count configuration (iterating on one config
      // without paying for the whole sweep). Cross-config gates are skipped.
      only_shards = static_cast<size_t>(std::strtoull(argv[i] + 9, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: serve_scale [--smoke] [--out FILE] [--shards=N]\n");
      return 2;
    }
  }

  ScaleParams p;
  p.templates = smoke ? 4096 : 104'000;
  p.bins_per_wave = smoke ? 8 : 10;

  std::vector<ConfigResult> configs;
  std::vector<ConfigResult> worker_configs;
  auto run_leg = [&](size_t shard_count, size_t workers,
                     std::vector<ConfigResult>* into) -> bool {
    ConfigResult r = RunConfig(p, shard_count, workers);
    std::fprintf(stderr,
                 "shards=%-3zu workers=%zu clusters=%-7zu ingest %11.0f ev/s  "
                 "cycle %8.4f s  max_lag %8.4f s  max_p99 %6.0f ns\n",
                 r.shard_count, r.workers, r.clusters_total,
                 r.ingest_events_per_sec, r.cycle_seconds, r.max_retrain_lag_s,
                 r.max_p99_ns);
    for (const ShardReadStats& st : r.shards) {
      if (st.reads_during_retrain == 0) {
        std::fprintf(stderr,
                     "serve_scale: a shard completed zero reads during the "
                     "in-flight retrain cycle at shard_count=%zu workers=%zu "
                     "— the shard read path blocked on training\n",
                     shard_count, workers);
        return false;
      }
    }
    into->push_back(std::move(r));
    return true;
  };

  for (size_t shard_count : kShardCounts) {
    if (only_shards != 0 && shard_count != only_shards) continue;
    if (!run_leg(shard_count, /*workers=*/1, &configs)) return 1;
  }
  // Worker-scaling legs: same template load at a fixed shard count, varying
  // only the retrain worker pool. Skipped when iterating on one shard count.
  if (only_shards == 0) {
    for (size_t workers : kWorkerCounts) {
      if (!run_leg(kWorkerLegShards, workers, &worker_configs)) return 1;
    }
  }

  // Self-relative read-latency baseline: this process's shard_count=1 leg.
  double read_p99_baseline_ns = configs.empty() ? 0.0 : configs[0].max_p99_ns;

  if (!smoke && only_shards == 0) {
    // Headline claims of the committed full run, enforced.
    if (configs[0].clusters_total < 100'000) {
      std::fprintf(stderr,
                   "serve_scale: full run produced %zu clusters (< 100000)\n",
                   configs[0].clusters_total);
      return 1;
    }
    // Max retrain lag must fall monotonically 1 -> 4 -> 16 shards: each shard
    // retrains over ~1/S of the history, and the pairwise clustering sweep is
    // quadratic in it. (64 shards sit past the knee where per-shard fixed
    // costs dominate, so the criterion stops at 16.)
    for (size_t c = 0; c + 1 < configs.size(); ++c) {
      if (configs[c + 1].shard_count > 16) break;
      if (configs[c + 1].max_retrain_lag_s >= configs[c].max_retrain_lag_s) {
        std::fprintf(stderr,
                     "serve_scale: max retrain lag did not decrease from "
                     "%zu to %zu shards (%.4f s -> %.4f s)\n",
                     configs[c].shard_count, configs[c + 1].shard_count,
                     configs[c].max_retrain_lag_s,
                     configs[c + 1].max_retrain_lag_s);
        return 1;
      }
    }
    // Sharding (and concurrent retraining) must not tax the read path: every
    // leg's worst shard p99 stays within 2x the single-shard p99 measured by
    // THIS process — a same-machine, same-build baseline, so the gate tracks
    // the hardware it runs on instead of a committed constant.
    const double budget_ns = kReadP99BudgetMultiple * read_p99_baseline_ns;
    auto check_p99 = [&](const std::vector<ConfigResult>& legs) -> bool {
      for (const ConfigResult& r : legs) {
        if (r.max_p99_ns > budget_ns) {
          std::fprintf(stderr,
                       "serve_scale: worst shard read p99 %.0f ns at "
                       "shard_count=%zu workers=%zu exceeds %.1fx the "
                       "single-shard baseline (%.0f ns budget)\n",
                       r.max_p99_ns, r.shard_count, r.workers,
                       kReadP99BudgetMultiple, budget_ns);
          return false;
        }
      }
      return true;
    };
    if (!check_p99(configs) || !check_p99(worker_configs)) return 1;
    // Concurrent drain speedup: at 16 shards x 100k-scale clusters, 4 workers
    // must finish the retrain cycle in under half the 1-worker wall time.
    // Gated on the machine actually having >= 4 cores to parallelize over.
    if (std::thread::hardware_concurrency() >= 4) {
      const ConfigResult* w1 = nullptr;
      const ConfigResult* w4 = nullptr;
      for (const ConfigResult& r : worker_configs) {
        if (r.workers == 1) w1 = &r;
        if (r.workers == 4) w4 = &r;
      }
      if (w1 != nullptr && w4 != nullptr &&
          w4->cycle_seconds >= 0.5 * w1->cycle_seconds) {
        std::fprintf(stderr,
                     "serve_scale: workers=4 retrain cycle %.4f s is not "
                     "< 0.5x the workers=1 cycle %.4f s at %zu shards\n",
                     w4->cycle_seconds, w1->cycle_seconds, kWorkerLegShards);
        return 1;
      }
    }
  }

  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
  }
  WriteJson(out, smoke, p, read_p99_baseline_ns, configs, worker_configs);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace dbaugur::bench

int main(int argc, char** argv) { return dbaugur::bench::Main(argc, argv); }
