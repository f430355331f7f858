// Table II — Computation and Storage Efficiency: per-epoch training CPU
// time on both datasets, single-prediction inference latency, and serialized
// model storage for LR, MLP, LSTM, TCN, and WFGAN. (As in the paper, ARIMA
// and the ensembles are omitted — ARIMA is fit-once, ensembles derive from
// the listed models.)
//
// Expected shape: LR < MLP << LSTM < TCN <= WFGAN on training time;
// inference in the low milliseconds everywhere; storage tens of KB with TCN
// largest among the compact models.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "cluster/descender.h"
#include "common/table_printer.h"
#include "core/dbaugur.h"
#include "models/linear_regression.h"
#include "models/lstm_forecaster.h"
#include "models/mlp.h"
#include "models/tcn.h"
#include "models/wfgan.h"

using namespace dbaugur;
using namespace dbaugur::bench;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Row {
  std::string name;
  double epoch_bustracker = 0.0;
  double epoch_alicluster = 0.0;
  double inference_ms = 0.0;
  int64_t storage = 0;
};

// Times one training epoch after a warm-up epoch (so lazily-initialized
// optimizer state doesn't pollute the measurement).
template <typename Model>
double TimeEpoch(Model& model, const Dataset& ds) {
  CheckOk(model.PrepareTraining(ds.train()), "prepare");
  (void)model.TrainEpoch();  // warm-up
  auto t0 = Clock::now();
  (void)model.TrainEpoch();
  return Seconds(t0, Clock::now());
}

double TimeInference(const models::Forecaster& model, const Dataset& ds) {
  std::vector<double> window(ds.values.end() - 30, ds.values.end());
  // Warm-up.
  (void)model.Predict(window);
  const int kReps = 200;
  auto t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) (void)model.Predict(window);
  return Seconds(t0, Clock::now()) / kReps * 1000.0;
}

std::vector<ts::Series> MakeWarpedTraces(size_t members) {
  std::vector<ts::Series> traces;
  for (int fam = 0; fam < 4; ++fam) {
    workloads::WarpedFamilyOptions wopts;
    wopts.members = members;
    wopts.max_shift = 2.0;
    wopts.phase = fam * 2.0 * M_PI / 4.0;
    wopts.seed = 400 + static_cast<uint64_t>(fam);
    for (auto& s : workloads::GenerateWarpedFamily(wopts)) {
      traces.push_back(std::move(s));
    }
  }
  return traces;
}

// Clustering-stage efficiency: the core::DBAugurSystem batch ingest (one
// AddTraces per Train) against a sequential AddTrace loop over the same
// seeded traces, with the pruning telemetry now threaded up from Descender.
void ClusteringEfficiency() {
  std::vector<ts::Series> traces = MakeWarpedTraces(/*members=*/10);

  cluster::DescenderOptions copts;
  copts.radius = 3.0;
  copts.min_size = 3;
  copts.dtw.window = 4;

  // Sequential baseline straight against Descender.
  cluster::DescenderOptions seq_opts = copts;
  seq_opts.threads = 1;
  cluster::Descender seq(seq_opts);
  auto t0 = Clock::now();
  for (const auto& s : traces) CheckOk(seq.AddTrace(s).status(), "AddTrace");
  double seq_s = Seconds(t0, Clock::now());

  // Batch path through the full system (Train = one AddTraces call).
  core::DBAugurOptions sys_opts;
  sys_opts.clustering = copts;
  sys_opts.top_k = 4;
  sys_opts.forecaster = BenchOptions(1, /*epochs=*/1);
  core::DBAugurSystem sys(sys_opts);
  for (const auto& s : traces) sys.AddResourceTrace(s);
  t0 = Clock::now();
  CheckOk(sys.Train(), "Train");
  double train_s = Seconds(t0, Clock::now());

  std::printf("\n=== Clustering ingest efficiency (%zu traces) ===\n",
              traces.size());
  TablePrinter table({"path", "wall", "full DTW", "LB_Kim rej", "LB_Keogh rej"});
  const dtw::PruningStats seq_st = seq.pruning_stats();
  const dtw::PruningStats sys_st = sys.clustering_pruning_stats();
  table.AddRow({"sequential AddTrace", TablePrinter::Fmt(seq_s, 3) + "s",
                std::to_string(seq_st.full_dtw),
                std::to_string(seq_st.kim_rejections),
                std::to_string(seq_st.keogh_rejections)});
  table.AddRow({"DBAugurSystem::Train (batch)",
                TablePrinter::Fmt(train_s, 3) + "s",
                std::to_string(sys_st.full_dtw),
                std::to_string(sys_st.kim_rejections),
                std::to_string(sys_st.keogh_rejections)});
  table.Print();
  std::printf(
      "(Train's wall-clock also covers model fitting; the full-DTW column is\n"
      "the clustering-only comparison — batch must be strictly lower.)\n");
}

// DTW-cascade SIMD dispatch: the identical clustering workload under the
// forced-scalar tier vs the host's best tier, through both the sequential
// AddTrace loop (timed) and the batch AddTraces sweep (whose endpoint grid
// reaches the same kernels through the span entry points). The vectorized
// band DTW and envelope are bit-identical to the scalar DP (and LB_Keogh is
// admissible to a few ULPs), so the cluster labels must not move; the
// wall-clock ratio is the cascade's measured SIMD speedup.
void DtwSimdEfficiency() {
  std::vector<ts::Series> traces = MakeWarpedTraces(/*members=*/16);

  cluster::DescenderOptions copts;
  copts.radius = 3.0;
  copts.min_size = 3;
  copts.dtw.window = 4;
  copts.threads = 1;

  auto labels_of = [](const cluster::Descender& d) {
    std::vector<int> labels;
    for (size_t i = 0; i < d.trace_count(); ++i) labels.push_back(d.label(i));
    return labels;
  };
  auto run = [&](std::vector<int>* labels) {
    cluster::Descender d(copts);
    auto t0 = Clock::now();
    for (const auto& s : traces) CheckOk(d.AddTrace(s).status(), "AddTrace");
    const double wall = Seconds(t0, Clock::now());
    cluster::Descender batch(copts);
    CheckOk(batch.AddTraces(traces), "AddTraces");
    *labels = labels_of(d);
    const std::vector<int> batch_labels = labels_of(batch);
    labels->insert(labels->end(), batch_labels.begin(), batch_labels.end());
    return wall;
  };

  std::vector<int> scalar_labels, simd_labels;
  (void)simd::ForceTier(simd::Tier::kScalar);  // scalar is always supported
  const double scalar_s = run(&scalar_labels);
  simd::ResetForcedTier();
  const double simd_s = run(&simd_labels);

  const bool labels_match = scalar_labels == simd_labels;
  std::printf("\n=== DTW cascade: scalar vs SIMD dispatch (%zu traces) ===\n",
              traces.size());
  TablePrinter table({"tier", "wall", "speedup", "labels"});
  table.AddRow({"scalar (forced)", TablePrinter::Fmt(scalar_s, 3) + "s",
                "1.00x", "-"});
  table.AddRow({simd::TierName(simd::ActiveTier()),
                TablePrinter::Fmt(simd_s, 3) + "s",
                TablePrinter::Fmt(simd_s > 0.0 ? scalar_s / simd_s : 0.0, 2) +
                    "x",
                labels_match ? "identical" : "DIVERGED"});
  table.Print();
  if (!labels_match) {
    std::printf("ERROR: cluster labels changed under SIMD dispatch\n");
    std::exit(1);
  }
}

}  // namespace

int main() {
  Dataset bus = MakeBusTrackerDataset();
  Dataset ali = MakeAlibabaDataset();
  models::ForecasterOptions opts = BenchOptions(1, /*epochs=*/1);
  std::vector<Row> rows;

  {
    // LR has no epochs; report full fit time (closest analogue).
    Row r{"LR"};
    models::LinearRegressionForecaster lr_bus(opts), lr_ali(opts);
    auto t0 = Clock::now();
    CheckOk(lr_bus.Fit(bus.train()), "LR fit");
    r.epoch_bustracker = Seconds(t0, Clock::now());
    t0 = Clock::now();
    CheckOk(lr_ali.Fit(ali.train()), "LR fit");
    r.epoch_alicluster = Seconds(t0, Clock::now());
    r.inference_ms = TimeInference(lr_bus, bus);
    r.storage = lr_bus.StorageBytes();
    rows.push_back(r);
  }
  {
    Row r{"MLP"};
    models::MlpForecaster bus_m(opts), ali_m(opts);
    r.epoch_bustracker = TimeEpoch(bus_m, bus);
    r.epoch_alicluster = TimeEpoch(ali_m, ali);
    CheckOk(bus_m.Fit(bus.train()), "MLP fit");
    r.inference_ms = TimeInference(bus_m, bus);
    r.storage = bus_m.StorageBytes();
    rows.push_back(r);
  }
  {
    Row r{"LSTM"};
    models::LstmForecaster bus_m(opts), ali_m(opts);
    r.epoch_bustracker = TimeEpoch(bus_m, bus);
    r.epoch_alicluster = TimeEpoch(ali_m, ali);
    CheckOk(bus_m.Fit(bus.train()), "LSTM fit");
    r.inference_ms = TimeInference(bus_m, bus);
    r.storage = bus_m.StorageBytes();
    rows.push_back(r);
  }
  {
    Row r{"TCN"};
    models::TcnForecaster bus_m(opts), ali_m(opts);
    r.epoch_bustracker = TimeEpoch(bus_m, bus);
    r.epoch_alicluster = TimeEpoch(ali_m, ali);
    CheckOk(bus_m.Fit(bus.train()), "TCN fit");
    r.inference_ms = TimeInference(bus_m, bus);
    r.storage = bus_m.StorageBytes();
    rows.push_back(r);
  }
  {
    Row r{"WFGAN"};
    models::WfganForecaster bus_m(opts), ali_m(opts);
    CheckOk(bus_m.PrepareTraining(bus.train()), "prepare");
    (void)bus_m.TrainEpoch();
    auto t0 = Clock::now();
    (void)bus_m.TrainEpoch();
    r.epoch_bustracker = Seconds(t0, Clock::now());
    CheckOk(ali_m.PrepareTraining(ali.train()), "prepare");
    (void)ali_m.TrainEpoch();
    t0 = Clock::now();
    (void)ali_m.TrainEpoch();
    r.epoch_alicluster = Seconds(t0, Clock::now());
    CheckOk(bus_m.Fit(bus.train()), "WFGAN fit");
    r.inference_ms = TimeInference(bus_m, bus);
    r.storage = bus_m.StorageBytes();
    rows.push_back(r);
  }

  std::printf("=== Table II: Computation and Storage Efficiency ===\n");
  TablePrinter table({"model", "epoch CPU (BusTrac)", "epoch CPU (AliClus)",
                      "inference", "storage"});
  for (const Row& r : rows) {
    table.AddRow({r.name, TablePrinter::Fmt(r.epoch_bustracker, 3) + "s",
                  TablePrinter::Fmt(r.epoch_alicluster, 3) + "s",
                  TablePrinter::Fmt(r.inference_ms, 3) + "ms",
                  TablePrinter::Fmt(static_cast<double>(r.storage) / 1024.0, 1) +
                      "KB"});
  }
  table.Print();
  std::printf(
      "\nLR row reports the full closed-form fit (it has no epochs). WFGAN\n"
      "storage covers generator + discriminator.\n");
  ClusteringEfficiency();
  DtwSimdEfficiency();
  return 0;
}
