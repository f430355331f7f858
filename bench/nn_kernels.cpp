// GEMM kernel and training-hot-path benchmark with machine-readable output.
//
// Four families of cases:
//   1. Microkernels: each fused GEMM variant vs the pre-PR naive kernel
//      (nn::ref) including the fresh-allocation-per-call behavior of the old
//      Matrix wrappers, at the shapes the WFGAN/LSTM/MLP hot paths hit.
//   2. wfgan_lstm_epoch: one WFGAN-shaped epoch worth of nn::LSTM forward +
//      backward passes.
//   3. wfgan_train_epoch_ms / tcn_train_epoch_ms: one TrainEpoch of the real
//      WfganForecaster and TcnForecaster on the paper-ensemble shape (window
//      30, batch 32, 581 points), median over the timed epochs.
//   4. fit_stage: core::BuildTrainedState on 5 clusters of 581-point traces
//      at the same shape (3 epochs), on a 1-lane pool and on a pool of
//      min(4, hardware_concurrency) lanes: median wall times and their ratio.
//      Nearly all of it is the ensemble fits, so it shows how well the fit
//      scheduler keeps the lanes busy.
//
// Output is a single JSON object (stdout, or --out FILE). `--smoke` shrinks
// rep counts so CI can run it in seconds.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbaugur.h"
#include "models/tcn.h"
#include "models/wfgan.h"
#include "nn/gemm.h"
#include "nn/lstm.h"
#include "nn/matrix.h"

namespace dbaugur::bench {
namespace {

using nn::Matrix;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

// --- Legacy Matrix-op replicas: fresh allocation per call + naive kernel,
// exactly what the pre-PR Matrix::MatMul family did.

Matrix LegacyMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols(), 0.0);
  nn::ref::MatMul(a.rows(), a.cols(), b.cols(), a.data(), b.data(), c.data());
  return c;
}

Matrix LegacyTransposeMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols(), 0.0);
  nn::ref::TransposeMatMul(a.rows(), a.cols(), b.cols(), a.data(), b.data(),
                           c.data());
  return c;
}

Matrix LegacyMatMulTranspose(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows(), 0.0);
  nn::ref::MatMulTranspose(a.rows(), a.cols(), b.rows(), a.data(), b.data(),
                           c.data());
  return c;
}

// --- Microkernel cases.

struct KernelCase {
  const char* name;  // which hot-path GEMM this shape comes from
  const char* op;    // nn | tn | nt
  size_t m, k, n;
};

// Shapes taken from the WFGAN (batch 32, input 1, hidden 30 -> 4H=120,
// attn 16), the MLP (30->32->16), and one large square that crosses the
// parallel-dispatch threshold.
const KernelCase kKernelCases[] = {
    {"lstm_z_recurrent", "nn", 32, 30, 120},
    {"lstm_z_input", "nn", 32, 1, 120},
    {"lstm_dwh", "tn", 32, 30, 120},
    {"lstm_dh_next", "nt", 32, 120, 30},
    {"attention_u", "nn", 32, 30, 16},
    {"mlp_l1", "nn", 32, 30, 32},
    {"large_square", "nn", 256, 256, 256},
};

struct CaseResult {
  std::string name;
  size_t m = 0, k = 0, n = 0;
  int reps = 0;
  double naive_ns = 0.0;
  double fused_ns = 0.0;
  double speedup = 0.0;
};

// Picks a rep count so each timed side runs ~`budget_s`.
int RepsForFlops(double flops, bool smoke) {
  double budget_s = smoke ? 0.02 : 0.4;
  double est_s = flops / 1e9;  // ~1 GFLOP/s floor for the naive kernel
  int reps = static_cast<int>(budget_s / (est_s > 1e-9 ? est_s : 1e-9));
  if (reps < 3) reps = 3;
  if (reps > 200000) reps = 200000;
  return reps;
}

CaseResult RunKernelCase(const KernelCase& kc, bool smoke, Rng* rng) {
  CaseResult r;
  r.name = kc.name;
  r.m = kc.m;
  r.k = kc.k;
  r.n = kc.n;
  r.reps = RepsForFlops(2.0 * static_cast<double>(kc.m) *
                            static_cast<double>(kc.k) *
                            static_cast<double>(kc.n),
                        smoke);

  const bool tn = std::strcmp(kc.op, "tn") == 0;
  const bool nt = std::strcmp(kc.op, "nt") == 0;
  // a is always (m x k). b depends on the op: nn multiplies a*b with b
  // (k x n); tn computes a^T*b with b (m x n); nt computes a*b^T with b
  // (n x k).
  Matrix a = RandomMatrix(kc.m, kc.k, rng);
  Matrix b = RandomMatrix(tn ? kc.m : (nt ? kc.n : kc.k),
                          tn ? kc.n : (nt ? kc.k : kc.n), rng);

  double sink = 0.0;  // defeats dead-code elimination

  double t0 = NowSeconds();
  for (int i = 0; i < r.reps; ++i) {
    Matrix c = tn   ? LegacyTransposeMatMul(a, b)
               : nt ? LegacyMatMulTranspose(a, b)
                    : LegacyMatMul(a, b);
    sink += c.data()[0];
  }
  double t1 = NowSeconds();

  Matrix c;  // persistent workspace, like the layer code
  for (int warm = 0; warm < 2; ++warm) {
    if (tn) {
      c.TransposeMatMulInto(a, b);
    } else if (nt) {
      c.MatMulTransposeInto(a, b);
    } else {
      c.MatMulInto(a, b);
    }
  }
  double t2 = NowSeconds();
  for (int i = 0; i < r.reps; ++i) {
    if (tn) {
      c.TransposeMatMulInto(a, b);
    } else if (nt) {
      c.MatMulTransposeInto(a, b);
    } else {
      c.MatMulInto(a, b);
    }
    sink += c.data()[0];
  }
  double t3 = NowSeconds();

  if (sink == 12345.6789) std::fprintf(stderr, "~");
  r.naive_ns = (t1 - t0) * 1e9 / r.reps;
  r.fused_ns = (t3 - t2) * 1e9 / r.reps;
  r.speedup = r.fused_ns > 0.0 ? r.naive_ns / r.fused_ns : 0.0;
  return r;
}

struct EpochResult {
  int reps = 0;
  int batches = 0;
  int seq_passes = 0;
  size_t batch = 0, steps = 0, hidden = 0;
  double fused_ms = 0.0;
};

// A fixed kernel-level proxy: 4 full forward+backward sequence passes
// through an LSTM(1, hidden) per batch, what a WFGAN batch cost before its
// exact fast path (generator once, discriminator three times). The real
// epochs, fast path included, are timed by RunModelEpochCase.
EpochResult RunWfganEpochCase(bool smoke, Rng* rng) {
  EpochResult r;
  r.batch = 32;
  r.steps = 30;  // paper window
  r.hidden = 30;
  r.seq_passes = 4;
  r.batches = smoke ? 2 : 16;  // full: ~500 samples / batch 32
  r.reps = smoke ? 1 : 3;

  std::vector<Matrix> xs, grads;
  for (size_t t = 0; t < r.steps; ++t) {
    xs.push_back(RandomMatrix(r.batch, 1, rng));
    grads.push_back(RandomMatrix(r.batch, r.hidden, rng));
  }

  double sink = 0.0;
  nn::LSTM fused(1, r.hidden, rng);
  fused.ForwardSequence(xs);
  fused.BackwardSequence(grads);
  double t0 = NowSeconds();
  for (int rep = 0; rep < r.reps; ++rep) {
    for (int bi = 0; bi < r.batches; ++bi) {
      for (int p = 0; p < r.seq_passes; ++p) {
        const std::vector<Matrix>& hs = fused.ForwardSequence(xs);
        const std::vector<Matrix>& dxs = fused.BackwardSequence(grads);
        sink += hs.back().data()[0] + dxs[0].data()[0];
      }
    }
  }
  double t1 = NowSeconds();

  if (sink == 12345.6789) std::fprintf(stderr, "~");
  r.fused_ms = (t1 - t0) * 1e3 / r.reps;
  return r;
}

struct ModelEpochResult {
  size_t points = 581;  // the paper-ensemble cluster series length
  size_t window = 30;
  size_t batch = 32;
  int epochs = 0;  // timed epochs after one warm-up epoch
  double wfgan_ms = 0.0;
  double tcn_ms = 0.0;
};

// Median milliseconds of one TrainEpoch over `epochs` timed epochs, after
// PrepareTraining and one warm-up epoch.
template <typename Model>
double MedianEpochMs(const models::ForecasterOptions& opts,
                     const std::vector<double>& series, int epochs) {
  Model model(opts);
  if (!model.PrepareTraining(series).ok() || !model.TrainEpoch().ok()) {
    std::fprintf(stderr, "%s: training failed\n", model.name().c_str());
    return 0.0;
  }
  std::vector<double> ms;
  for (int e = 0; e < epochs; ++e) {
    double t0 = NowSeconds();
    const bool ok = model.TrainEpoch().ok();
    ms.push_back((NowSeconds() - t0) * 1e3);
    if (!ok) return 0.0;
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

// The real forecasters' epochs, so the model-level fast paths (which the
// LSTM-pass leg above cannot see) show up here.
ModelEpochResult RunModelEpochCase(bool smoke, Rng* rng) {
  ModelEpochResult r;
  r.epochs = smoke ? 1 : 9;
  std::vector<double> series(r.points);
  for (size_t i = 0; i < r.points; ++i) {
    const double day = 2.0 * M_PI * static_cast<double>(i) / 144.0;
    series[i] = 100.0 + 60.0 * std::sin(day) + 20.0 * std::sin(7.0 * day) +
                rng->Uniform(-5.0, 5.0);
  }
  models::ForecasterOptions opts;
  opts.window = r.window;
  opts.batch_size = r.batch;
  r.wfgan_ms = MedianEpochMs<models::WfganForecaster>(opts, series, r.epochs);
  r.tcn_ms = MedianEpochMs<models::TcnForecaster>(opts, series, r.epochs);
  return r;
}

struct FitStageResult {
  size_t clusters = 5;
  size_t points = 581;
  size_t window = 30;
  size_t batch = 32;
  size_t epochs = 3;
  int reps = 0;  // timed builds per pool, after one warm-up build
  size_t lanes = 0;
  double one_lane_ms = 0.0;
  double lanes_ms = 0.0;
  double speedup = 0.0;  // one_lane_ms / lanes_ms
  bool ok = false;
};

// Five families of four traces each: one shape at four scales plus a little
// noise, so Descender finds exactly five clusters.
std::vector<ts::Series> FitStageTraces(size_t clusters, size_t points,
                                       Rng* rng) {
  std::vector<ts::Series> traces;
  for (size_t f = 0; f < clusters; ++f) {
    for (size_t m = 0; m < 4; ++m) {
      std::vector<double> v(points);
      const double scale = 10.0 * static_cast<double>(f + 1) + 2.0 * m;
      for (size_t i = 0; i < points; ++i) {
        const double x = static_cast<double>(i);
        double shape = 0.0;
        switch (f) {
          case 0: shape = std::sin(2.0 * M_PI * x / 144.0); break;
          case 1: shape = (i / 36) % 2 == 0 ? 1.0 : -1.0; break;
          case 2: shape = static_cast<double>(i % 48) / 48.0; break;
          case 3: shape = x / 300.0 + 0.1 * std::sin(2.0 * M_PI * x / 7.0); break;
          default: shape = std::exp(-std::pow((x - 290.0) / 40.0, 2.0)); break;
        }
        v[i] = scale * (2.0 + shape) + 0.01 * rng->Gaussian();
      }
      traces.emplace_back(0, 600, std::move(v), "f" + std::to_string(f));
    }
  }
  return traces;
}

// Median milliseconds of one BuildTrainedState on `pool`, after a warm-up
// build; false in `ok` unless every build publishes `clusters` fitted
// clusters.
double MedianBuildMs(const core::DBAugurOptions& opts,
                     const std::vector<ts::Series>& traces, ThreadPool* pool,
                     int reps, size_t clusters, bool* ok) {
  std::vector<double> ms;
  for (int rep = 0; rep <= reps; ++rep) {
    double t0 = NowSeconds();
    auto st = core::BuildTrainedState(opts, traces, pool);
    const double elapsed = (NowSeconds() - t0) * 1e3;
    if (!st.ok() || st->forecasts.size() != clusters) *ok = false;
    if (st.ok()) {
      for (const core::ClusterForecast& cf : st->forecasts) {
        if (!cf.fit_status.ok()) *ok = false;
      }
    }
    if (rep > 0) ms.push_back(elapsed);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

FitStageResult RunFitStageCase(bool smoke, Rng* rng) {
  FitStageResult r;
  if (smoke) {
    r.points = 200;
    r.epochs = 1;
  }
  r.reps = smoke ? 1 : 5;
  r.lanes = std::min<size_t>(4, DefaultThreadCount());
  core::DBAugurOptions opts;
  opts.clustering.radius = 2.0;
  opts.clustering.min_size = 3;
  opts.clustering.dtw.window = 4;
  opts.top_k = r.clusters;
  opts.forecaster.window = r.window;
  opts.forecaster.batch_size = r.batch;
  opts.forecaster.epochs = r.epochs;
  const std::vector<ts::Series> traces =
      FitStageTraces(r.clusters, r.points, rng);
  r.ok = true;
  ThreadPool one(1);
  r.one_lane_ms = MedianBuildMs(opts, traces, &one, r.reps, r.clusters, &r.ok);
  ThreadPool many(r.lanes);
  r.lanes_ms = MedianBuildMs(opts, traces, &many, r.reps, r.clusters, &r.ok);
  r.speedup = r.lanes_ms > 0.0 ? r.one_lane_ms / r.lanes_ms : 0.0;
  return r;
}

void WriteJson(std::FILE* out, bool smoke,
               const std::vector<CaseResult>& cases, const EpochResult& ep,
               const ModelEpochResult& me, const FitStageResult& fs) {
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"nn_kernels\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(out, "  \"threads\": 1,\n");
  WriteSimdProvenance(out);
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"m\": %zu, \"k\": %zu, \"n\": %zu, "
                 "\"reps\": %d, \"naive_ns\": %.1f, \"fused_ns\": %.1f, "
                 "\"speedup\": %.3f}%s\n",
                 c.name.c_str(), c.m, c.k, c.n, c.reps, c.naive_ns, c.fused_ns,
                 c.speedup, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"wfgan_lstm_epoch\": {\"batch\": %zu, \"steps\": %zu, "
               "\"hidden\": %zu, \"batches\": %d, \"seq_passes\": %d, "
               "\"reps\": %d, \"fused_ms\": %.2f},\n",
               ep.batch, ep.steps, ep.hidden, ep.batches, ep.seq_passes,
               ep.reps, ep.fused_ms);
  std::fprintf(out,
               "  \"model_epochs\": {\"points\": %zu, \"window\": %zu, "
               "\"batch\": %zu, \"epochs\": %d},\n",
               me.points, me.window, me.batch, me.epochs);
  std::fprintf(out, "  \"wfgan_train_epoch_ms\": %.2f,\n", me.wfgan_ms);
  std::fprintf(out, "  \"tcn_train_epoch_ms\": %.2f,\n", me.tcn_ms);
  std::fprintf(out,
               "  \"fit_stage\": {\"clusters\": %zu, \"points\": %zu, "
               "\"window\": %zu, \"batch\": %zu, \"epochs\": %zu, "
               "\"reps\": %d, \"lanes\": %zu, \"one_lane_ms\": %.1f, "
               "\"lanes_ms\": %.1f, \"speedup\": %.3f}\n",
               fs.clusters, fs.points, fs.window, fs.batch, fs.epochs, fs.reps,
               fs.lanes, fs.one_lane_ms, fs.lanes_ms, fs.speedup);
  std::fprintf(out, "}\n");
}

int Main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: nn_kernels [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  Rng rng(20230817);
  std::vector<CaseResult> cases;
  for (const KernelCase& kc : kKernelCases) {
    cases.push_back(RunKernelCase(kc, smoke, &rng));
    std::fprintf(stderr, "%-18s naive %10.0f ns  fused %10.0f ns  %5.2fx\n",
                 cases.back().name.c_str(), cases.back().naive_ns,
                 cases.back().fused_ns, cases.back().speedup);
  }
  EpochResult ep = RunWfganEpochCase(smoke, &rng);
  std::fprintf(stderr, "wfgan_lstm_epoch   fused %10.2f ms\n", ep.fused_ms);
  ModelEpochResult me = RunModelEpochCase(smoke, &rng);
  std::fprintf(stderr, "train_epoch        wfgan %10.2f ms  tcn %10.2f ms\n",
               me.wfgan_ms, me.tcn_ms);
  FitStageResult fs = RunFitStageCase(smoke, &rng);
  std::fprintf(stderr,
               "fit_stage          1 lane %8.1f ms  %zu lanes %8.1f ms  "
               "%5.2fx\n",
               fs.one_lane_ms, fs.lanes, fs.lanes_ms, fs.speedup);
  if (!fs.ok) {
    std::fprintf(stderr, "fit_stage: a build did not fit %zu clusters\n",
                 fs.clusters);
    return 1;
  }

  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
  }
  WriteJson(out, smoke, cases, ep, me, fs);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace dbaugur::bench

int main(int argc, char** argv) { return dbaugur::bench::Main(argc, argv); }
