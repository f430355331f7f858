// Shared plumbing for the paper-reproduction benches: the two evaluation
// datasets (synthetic stand-ins calibrated per DESIGN.md §3), model
// construction, and MSE evaluation helpers.
//
// Sizes are chosen so the full bench suite completes in minutes on one core
// while preserving the paper's qualitative shapes; scale `days`/`epochs` up
// for tighter curves.

#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.h"
#include "ensemble/presets.h"
#include "ensemble/shared_member.h"
#include "ensemble/time_sensitive_ensemble.h"
#include "models/factory.h"
#include "models/forecaster.h"
#include "ts/metrics.h"
#include "ts/window_dataset.h"
#include "workloads/generators.h"

namespace dbaugur::bench {

/// One evaluation dataset: raw values plus the 70/30 split point.
struct Dataset {
  std::string name;
  std::vector<double> values;
  size_t train_size = 0;

  std::vector<double> train() const {
    return std::vector<double>(values.begin(),
                               values.begin() + static_cast<ptrdiff_t>(train_size));
  }
};

/// BusTracker-like query counts aggregated to the paper's 10-minute
/// forecasting interval.
inline Dataset MakeBusTrackerDataset(size_t days = 14) {
  workloads::BusTrackerOptions opts;
  opts.days = days;
  auto per_minute = workloads::GenerateBusTracker(opts);
  auto agg = per_minute.AggregateSum(10);
  Dataset d;
  d.name = "BusTracker";
  d.values = agg->values();
  d.train_size = d.values.size() * 7 / 10;
  return d;
}

/// Alibaba-like disk utilization, aggregated from 5-minute samples to the
/// 10-minute interval.
inline Dataset MakeAlibabaDataset(size_t days = 6) {
  workloads::AlibabaOptions opts;
  opts.days = days;
  auto s = workloads::GenerateAlibabaDisk(opts);
  auto agg = s.AggregateMean(2);
  Dataset d;
  d.name = "AliCluster";
  d.values = agg->values();
  d.train_size = d.values.size() * 7 / 10;
  return d;
}

/// Writes the provenance fields every bench JSON carries: the host CPU's
/// feature set, the dispatch tier the process is actually running (env caps
/// and forced tiers included) and the core count, so committed BENCH_*.json
/// results are comparable across machines. Emits three complete
/// `"key": value,` lines at two-space indent.
inline void WriteSimdProvenance(std::FILE* out) {
  std::fprintf(out, "  \"cpu_features\": \"%s\",\n  \"simd_tier\": \"%s\",\n",
               simd::CpuFeatures().c_str(),
               simd::TierName(simd::ActiveTier()));
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
}

#ifndef DBAUGUR_BUILD_TYPE
#define DBAUGUR_BUILD_TYPE "unknown"
#endif

/// Writes the build a bench result came from: the CMake build type, the
/// compiler and the commit (`git_sha`, which the caller takes from a flag;
/// the binary cannot know it). Emits three `"key": value,` lines.
inline void WriteBuildProvenance(std::FILE* out, const char* git_sha) {
#if defined(__VERSION__)
  const char* compiler = __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::fprintf(out,
               "  \"build_type\": \"%s\",\n  \"compiler\": \"%s\",\n"
               "  \"git_sha\": \"%s\",\n",
               DBAUGUR_BUILD_TYPE, compiler, git_sha);
}

/// Default bench hyper-parameters (paper: window 30, lr 1e-3; epochs reduced
/// for single-core runtime — see file header).
inline models::ForecasterOptions BenchOptions(size_t horizon,
                                              size_t epochs = 10) {
  models::ForecasterOptions opts;
  opts.window = 30;
  opts.horizon = horizon;
  opts.epochs = epochs;
  return opts;
}

/// Fits a fresh model of `name` on the dataset's training split and returns
/// (model, test MSE).
inline StatusOr<std::pair<std::unique_ptr<models::Forecaster>, double>>
FitAndScore(const std::string& name, const Dataset& ds,
            const models::ForecasterOptions& opts) {
  auto model = models::MakeForecaster(name, opts);
  if (!model.ok()) return model.status();
  DBAUGUR_RETURN_IF_ERROR((*model)->Fit(ds.train()));
  auto eval = models::EvaluateForecaster(**model, ds.values, ds.train_size,
                                         opts.window, opts.horizon);
  if (!eval.ok()) return eval.status();
  auto mse = ts::MSE(eval->predicted, eval->actual);
  if (!mse.ok()) return mse.status();
  return std::make_pair(std::move(model).value(), *mse);
}

/// Builds an ensemble over already-fitted shared members and returns its
/// online-evaluated test MSE.
inline StatusOr<double> EnsembleScore(
    const std::vector<const models::Forecaster*>& members, bool dynamic,
    const Dataset& ds, const models::ForecasterOptions& opts,
    double delta = 0.9) {
  ensemble::EnsembleOptions eopts;
  eopts.dynamic = dynamic;
  eopts.delta = delta;
  ensemble::TimeSensitiveEnsemble ens(eopts);
  for (const models::Forecaster* m : members) {
    ens.AddMember(std::make_unique<ensemble::SharedMember>(m));
  }
  DBAUGUR_RETURN_IF_ERROR(ens.Fit(ds.train()));
  auto eval = ensemble::EvaluateOnline(ens, ds.values, ds.train_size,
                                       opts.window, opts.horizon);
  if (!eval.ok()) return eval.status();
  auto mse = ts::MSE(eval->predicted, eval->actual);
  if (!mse.ok()) return mse.status();
  return *mse;
}

/// Aborts the bench with a message when a Status is not OK.
inline void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace dbaugur::bench
