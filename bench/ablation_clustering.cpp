// Clustering ablation (supports the §IV claims): DTW vs lock-step Euclidean
// distance for grouping time-shifted workload families; the LB_Kim/LB_Keogh
// cascade's pruning effectiveness; Ball-Tree recall under the non-metric
// DTW distance; plus google-benchmark microbenchmarks of the distance
// kernels.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "cluster/ball_tree.h"
#include "cluster/descender.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "dtw/dtw.h"
#include "workloads/generators.h"

using namespace dbaugur;

namespace {

// Rand index of a labeling against ground-truth family membership.
double RandIndex(const std::vector<int>& labels,
                 const std::vector<int>& truth) {
  size_t agree = 0, total = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    for (size_t j = i + 1; j < labels.size(); ++j) {
      bool same_l = labels[i] == labels[j];
      bool same_t = truth[i] == truth[j];
      if (same_l == same_t) ++agree;
      ++total;
    }
  }
  return total ? static_cast<double>(agree) / static_cast<double>(total) : 1.0;
}

// Builds three warped families plus ground truth. Geometry: period 32, so
// the three phases sit ~10.7 steps apart; member shifts are <= 2 steps, so a
// DTW band of 4 absorbs every intra-family shift while leaving >= 2.7 steps
// of irreducible cross-family misalignment.
void MakeFamilies(std::vector<ts::Series>* traces, std::vector<int>* truth) {
  for (int fam = 0; fam < 3; ++fam) {
    workloads::WarpedFamilyOptions opts;
    opts.members = 10;
    opts.max_shift = 2.0;
    opts.phase = fam * 2.0 * M_PI / 3.0;
    opts.seed = 100 + static_cast<uint64_t>(fam);
    for (auto& s : workloads::GenerateWarpedFamily(opts)) {
      traces->push_back(std::move(s));
      truth->push_back(fam);
    }
  }
}

void ClusteringQuality() {
  std::vector<ts::Series> traces;
  std::vector<int> truth;
  MakeFamilies(&traces, &truth);

  std::printf("=== Ablation: DTW vs Euclidean clustering quality ===\n");
  std::printf("30 traces = 3 latent families with time shifts <= 2 steps\n\n");
  TablePrinter table({"distance", "radius", "clusters(dense)", "Rand index"});
  for (double radius : {2.0, 3.0, 4.0}) {
    // DTW (Descender default).
    cluster::DescenderOptions dopts;
    dopts.radius = radius;
    dopts.min_size = 3;
    dopts.dtw.window = 4;
    cluster::Descender dtw_desc(dopts);
    if (!dtw_desc.AddTraces(traces).ok()) continue;
    std::vector<int> dtw_labels(traces.size());
    for (size_t i = 0; i < traces.size(); ++i) dtw_labels[i] = dtw_desc.label(i);
    table.AddRow({"DTW(w=4)", TablePrinter::Fmt(radius, 1),
                  std::to_string(dtw_desc.density_cluster_count()),
                  TablePrinter::Fmt(RandIndex(dtw_labels, truth), 3)});
    // Euclidean = DTW with window 0 (lock-step alignment only).
    cluster::DescenderOptions eopts = dopts;
    eopts.dtw.window = 0;
    cluster::Descender euc_desc(eopts);
    if (!euc_desc.AddTraces(traces).ok()) continue;
    std::vector<int> euc_labels(traces.size());
    for (size_t i = 0; i < traces.size(); ++i) euc_labels[i] = euc_desc.label(i);
    table.AddRow({"Euclidean", TablePrinter::Fmt(radius, 1),
                  std::to_string(euc_desc.density_cluster_count()),
                  TablePrinter::Fmt(RandIndex(euc_labels, truth), 3)});
  }
  table.Print();
  std::printf("\n");
}

void CascadeStats() {
  std::printf("=== Ablation: lower-bound cascade pruning ===\n");
  // Structured candidates: 30 phase families x level offsets, as a real
  // workload-trace collection would look. LB_Kim rejects level-shifted
  // traces from the endpoints; LB_Keogh rejects phase-mismatched ones; only
  // genuinely close traces pay for a full DTW.
  std::vector<std::vector<double>> candidates;
  for (int k = 0; k < 30; ++k) {
    workloads::WarpedFamilyOptions opts;
    opts.members = 10;
    opts.max_shift = 2.0;
    opts.phase = k * 2.0 * M_PI / 30.0;
    opts.seed = 200 + static_cast<uint64_t>(k);
    for (auto& s : workloads::GenerateWarpedFamily(opts)) {
      std::vector<double> v = s.values();
      for (double& x : v) x += 0.15 * k;  // per-family level offset
      candidates.push_back(std::move(v));
    }
  }
  std::vector<dtw::Envelope> envs;
  envs.reserve(candidates.size());
  for (auto& c : candidates) envs.push_back(dtw::BuildEnvelope(c, 4));
  dtw::CascadingDtw cascade({4});
  const std::vector<double>& query = candidates[0];
  size_t neighbors = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    auto within = cascade.WithinRadius(query, candidates[i], envs[i], 3.0);
    if (within.ok() && *within) ++neighbors;
  }
  TablePrinter t({"tier", "decided"});
  const dtw::PruningStats& st = cascade.stats();
  t.AddRow({"LB_Kim rejections", std::to_string(st.kim_rejections)});
  t.AddRow({"LB_Keogh rejections", std::to_string(st.keogh_rejections)});
  t.AddRow({"full DTW computations", std::to_string(st.full_dtw)});
  t.AddRow({"neighbors found", std::to_string(neighbors)});
  t.Print();
  std::printf("\n");
}

// Batch AddTraces vs a sequential AddTrace loop on one seeded workload:
// wall-clock, full-DTW count, and a label-identity check. The batch path
// must win on full DTW evaluations (symmetric two-sided LB_Keogh) without
// changing a single label.
void BatchVsSequential() {
  std::printf("=== Ablation: batch vs sequential ingestion ===\n");
  std::vector<ts::Series> traces;
  for (int fam = 0; fam < 6; ++fam) {
    workloads::WarpedFamilyOptions opts;
    opts.members = 15;
    opts.max_shift = 2.0;
    opts.phase = fam * 2.0 * M_PI / 6.0;
    opts.seed = 300 + static_cast<uint64_t>(fam);
    for (auto& s : workloads::GenerateWarpedFamily(opts)) {
      traces.push_back(std::move(s));
    }
  }
  std::printf("%zu traces = 6 warped families, radius 3, band 4\n\n",
              traces.size());

  cluster::DescenderOptions base;
  base.radius = 3.0;
  base.min_size = 3;
  base.dtw.window = 4;

  using Clock = std::chrono::steady_clock;
  auto run_ms = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };

  cluster::DescenderOptions seq_opts = base;
  seq_opts.threads = 1;
  cluster::Descender seq(seq_opts);
  auto t0 = Clock::now();
  for (const auto& s : traces) {
    if (!seq.AddTrace(s).ok()) return;
  }
  double seq_ms = run_ms(t0);

  auto labels_match = [&](const cluster::Descender& d) {
    for (size_t i = 0; i < traces.size(); ++i) {
      if (d.label(i) != seq.label(i)) return false;
    }
    return true;
  };

  TablePrinter table({"ingestion", "wall ms", "full DTW", "LB_Kim rej",
                      "LB_Keogh rej", "labels==seq"});
  auto add_row = [&](const char* name, double ms,
                     const cluster::Descender& d) {
    const dtw::PruningStats& st = d.pruning_stats();
    table.AddRow({name, TablePrinter::Fmt(ms, 1),
                  std::to_string(st.full_dtw),
                  std::to_string(st.kim_rejections),
                  std::to_string(st.keogh_rejections),
                  labels_match(d) ? "yes" : "NO"});
  };
  add_row("sequential AddTrace", seq_ms, seq);

  std::vector<size_t> thread_counts{1};
  if (DefaultThreadCount() > 1) thread_counts.push_back(DefaultThreadCount());
  for (size_t threads : thread_counts) {
    cluster::DescenderOptions bopts = base;
    bopts.threads = threads;
    cluster::Descender batch(bopts);
    t0 = Clock::now();
    if (!batch.AddTraces(traces).ok()) return;
    double ms = run_ms(t0);
    std::string name = "batch AddTraces (threads=" + std::to_string(threads) + ")";
    add_row(name.c_str(), ms, batch);
  }
  table.Print();
  std::printf(
      "(Batch's win on full DTW comes from the symmetric two-sided LB_Keogh:\n"
      "both envelopes exist up front, so each pair gets the tighter bound.\n"
      "Sequential relabels after every insert on top of that.)\n\n");
}

void BallTreeRecall() {
  std::printf("=== Ablation: Ball-Tree under DTW (non-metric) ===\n");
  std::vector<ts::Series> traces;
  std::vector<int> truth;
  MakeFamilies(&traces, &truth);
  std::vector<std::vector<double>> pts;
  for (auto& t : traces) pts.push_back(t.values());
  dtw::DtwOptions dopts{8};
  auto dist = [dopts](const std::vector<double>& a,
                      const std::vector<double>& b) {
    auto d = dtw::DtwDistance(a, b, dopts);
    return d.ok() ? *d : 1e300;
  };
  auto tree = cluster::BallTree::Build(pts, dist);
  if (!tree.ok()) return;
  size_t found = 0, expected = 0;
  for (size_t q = 0; q < pts.size(); ++q) {
    auto got = tree->RangeQuery(pts[q], 3.0);
    std::set<size_t> got_set(got.begin(), got.end());
    for (size_t i = 0; i < pts.size(); ++i) {
      if (dist(pts[q], pts[i]) <= 3.0) {
        ++expected;
        if (got_set.count(i)) ++found;
      }
    }
  }
  std::printf("range-query recall vs exact scan: %zu/%zu = %.3f\n",
              found, expected,
              expected ? static_cast<double>(found) / expected : 1.0);
  std::printf(
      "(DTW violates the triangle inequality, so Ball-Tree pruning is\n"
      "heuristic; Descender's default exact cascade has recall 1.)\n\n");
}

// ---- google-benchmark microbenchmarks of the distance kernels ----

std::vector<double> BenchSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Gaussian();
  return v;
}

void BM_DtwFull(benchmark::State& state) {
  auto a = BenchSeries(static_cast<size_t>(state.range(0)), 1);
  auto b = BenchSeries(static_cast<size_t>(state.range(0)), 2);
  dtw::DtwOptions opts{static_cast<int>(state.range(1))};
  for (auto _ : state) {
    auto d = dtw::DtwDistance(a, b, opts);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DtwFull)->Args({96, 8})->Args({96, -1})->Args({512, 16});

void BM_LbKeogh(benchmark::State& state) {
  auto a = BenchSeries(static_cast<size_t>(state.range(0)), 1);
  auto b = BenchSeries(static_cast<size_t>(state.range(0)), 2);
  auto env = dtw::BuildEnvelope(b, 8);
  for (auto _ : state) {
    double lb = dtw::LbKeogh(a, env);
    benchmark::DoNotOptimize(lb);
  }
}
BENCHMARK(BM_LbKeogh)->Arg(96)->Arg(512);

void BM_CascadeReject(benchmark::State& state) {
  // Far-apart traces: the cascade should reject in ~constant time.
  std::vector<double> a(96, 0.0), b(96, 50.0);
  auto env = dtw::BuildEnvelope(b, 8);
  dtw::CascadingDtw cascade({8});
  for (auto _ : state) {
    auto d = cascade.Distance(a, b, env, 1.0);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_CascadeReject);

}  // namespace

int main(int argc, char** argv) {
  ClusteringQuality();
  CascadeStats();
  BatchVsSequential();
  BallTreeRecall();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
