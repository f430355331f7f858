// Tests for the time-sensitive ensemble (Eq. 7-8), QB5000, and the online
// evaluation harness.

#include <gtest/gtest.h>

#include <cmath>

#include "common/binio.h"
#include "common/rng.h"
#include "ensemble/presets.h"
#include "ensemble/time_sensitive_ensemble.h"
#include "ts/metrics.h"

namespace dbaugur::ensemble {
namespace {

// A stub member with a fixed additive bias: prediction = next-window-naive
// (last value) + bias. Lets us control per-member error exactly.
class BiasedNaive : public models::Forecaster {
 public:
  explicit BiasedNaive(double bias) : bias_(bias) {}
  Status Fit(const std::vector<double>&) override { return Status::OK(); }
  StatusOr<double> Predict(const std::vector<double>& window) const override {
    return window.back() + bias_;
  }
  std::string name() const override { return "BiasedNaive"; }
  int64_t StorageBytes() const override { return 8; }

 private:
  double bias_;
};

models::ForecasterOptions SmallOpts() {
  models::ForecasterOptions o;
  o.window = 8;
  o.horizon = 1;
  o.epochs = 5;
  return o;
}

std::vector<double> ConstSeries(size_t n, double v) {
  return std::vector<double>(n, v);
}

TEST(EnsembleTest, EqualWeightsBeforeAnyObservation) {
  TimeSensitiveEnsemble ens({0.9, true});
  ens.AddMember(std::make_unique<BiasedNaive>(0.0));
  ens.AddMember(std::make_unique<BiasedNaive>(1.0));
  ens.AddMember(std::make_unique<BiasedNaive>(2.0));
  ASSERT_TRUE(ens.Fit(ConstSeries(20, 5.0)).ok());
  auto w = ens.CurrentWeights();
  ASSERT_EQ(w.size(), 3u);
  for (double wi : w) EXPECT_DOUBLE_EQ(wi, 1.0 / 3.0);
  // Prediction = mean of 5, 6, 7.
  auto p = ens.Predict(ConstSeries(8, 5.0));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 6.0, 1e-12);
}

TEST(EnsembleTest, WeightsShiftTowardAccurateMember) {
  TimeSensitiveEnsemble ens({0.9, true});
  ens.AddMember(std::make_unique<BiasedNaive>(0.0));  // perfect on const series
  ens.AddMember(std::make_unique<BiasedNaive>(3.0));
  ASSERT_TRUE(ens.Fit(ConstSeries(20, 5.0)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ens.Observe(ConstSeries(8, 5.0), 5.0).ok());
  }
  auto w = ens.CurrentWeights();
  EXPECT_GT(w[0], 0.95);
  EXPECT_LT(w[1], 0.05);
  double sum = w[0] + w[1];
  EXPECT_NEAR(sum, 1.0, 1e-12);
  auto p = ens.Predict(ConstSeries(8, 5.0));
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 5.0, 0.2);
}

TEST(EnsembleTest, WeightsMatchEquation8ForThreeMembers) {
  TimeSensitiveEnsemble ens({0.9, true});
  ens.AddMember(std::make_unique<BiasedNaive>(1.0));
  ens.AddMember(std::make_unique<BiasedNaive>(2.0));
  ens.AddMember(std::make_unique<BiasedNaive>(3.0));
  ASSERT_TRUE(ens.Fit(ConstSeries(20, 0.0)).ok());
  ASSERT_TRUE(ens.Observe(ConstSeries(8, 0.0), 0.0).ok());
  // Errors: 1, 4, 9. Gammas after one step equal the squared errors.
  const auto& g = ens.Distances();
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 4.0);
  EXPECT_DOUBLE_EQ(g[2], 9.0);
  auto w = ens.CurrentWeights();
  double sum = 14.0;
  EXPECT_NEAR(w[0], (sum - 1.0) / (2 * sum), 1e-12);
  EXPECT_NEAR(w[1], (sum - 4.0) / (2 * sum), 1e-12);
  EXPECT_NEAR(w[2], (sum - 9.0) / (2 * sum), 1e-12);
  EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-12);
}

TEST(EnsembleTest, AttenuationForgetsOldErrors) {
  // Member 0 starts bad then becomes perfect; with delta < 1 its weight must
  // recover.
  TimeSensitiveEnsemble ens({0.5, true});
  ens.AddMember(std::make_unique<BiasedNaive>(0.0));
  ens.AddMember(std::make_unique<BiasedNaive>(1.0));
  ASSERT_TRUE(ens.Fit(ConstSeries(20, 0.0)).ok());
  // Phase 1: feed actuals equal to member-1's prediction (member 0 is wrong).
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ens.Observe(ConstSeries(8, 0.0), 1.0).ok());
  }
  double w0_bad = ens.CurrentWeights()[0];
  EXPECT_LT(w0_bad, 0.5);
  // Phase 2: actuals now equal member-0's prediction.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(ens.Observe(ConstSeries(8, 0.0), 0.0).ok());
  }
  double w0_recovered = ens.CurrentWeights()[0];
  EXPECT_GT(w0_recovered, 0.5);
}

TEST(EnsembleTest, FixedModeKeepsEqualWeights) {
  TimeSensitiveEnsemble ens({0.9, false});
  ens.AddMember(std::make_unique<BiasedNaive>(0.0));
  ens.AddMember(std::make_unique<BiasedNaive>(2.0));
  ASSERT_TRUE(ens.Fit(ConstSeries(20, 0.0)).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ens.Observe(ConstSeries(8, 0.0), 0.0).ok());
  }
  auto w = ens.CurrentWeights();
  EXPECT_DOUBLE_EQ(w[0], 0.5);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

TEST(EnsembleTest, GuardsAndErrors) {
  TimeSensitiveEnsemble empty({0.9, true});
  EXPECT_FALSE(empty.Fit(ConstSeries(20, 0.0)).ok());
  TimeSensitiveEnsemble ens({0.9, true});
  ens.AddMember(std::make_unique<BiasedNaive>(0.0));
  EXPECT_FALSE(ens.Predict(ConstSeries(8, 0.0)).ok());
  EXPECT_FALSE(ens.Observe(ConstSeries(8, 0.0), 1.0).ok());
}

// A stub whose forecast is 100 × its completed fits and whose Fit fails on
// call number `fail_on` (1-based; 0 never fails).
class CountingMember : public models::Forecaster {
 public:
  explicit CountingMember(int fail_on) : fail_on_(fail_on) {}
  Status Fit(const std::vector<double>&) override {
    if (++calls_ == fail_on_) return Status::Internal("stub fit failure");
    ++fits_;
    return Status::OK();
  }
  StatusOr<double> Predict(const std::vector<double>&) const override {
    return 100.0 * fits_;
  }
  std::string name() const override { return "Counting"; }
  int64_t StorageBytes() const override { return 8; }

 private:
  int fail_on_;
  int calls_ = 0;
  int fits_ = 0;
};

TEST(EnsembleTest, FailedRefitStopsServing) {
  TimeSensitiveEnsemble ens({0.9, true});
  ens.AddMember(std::make_unique<CountingMember>(0));
  ens.AddMember(std::make_unique<CountingMember>(2));
  const std::vector<double> w = ConstSeries(8, 1.0);
  ASSERT_TRUE(ens.Fit(ConstSeries(20, 1.0)).ok());
  auto first = ens.Predict(w);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(*first, 100.0);
  // The refit changes member 0, then member 1 fails: neither the cached
  // forecast nor the half-refit members may serve.
  EXPECT_EQ(ens.Fit(ConstSeries(20, 1.0)).code(), StatusCode::kInternal);
  EXPECT_EQ(ens.Predict(w).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ens.Predict(ConstSeries(8, 2.0)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ens.Observe(w, 1.0).code(), StatusCode::kFailedPrecondition);
  // A refit that succeeds serves again.
  ASSERT_TRUE(ens.Fit(ConstSeries(20, 1.0)).ok());
  auto again = ens.Predict(w);
  ASSERT_TRUE(again.ok());
  EXPECT_DOUBLE_EQ(*again, 250.0);  // members at 3 and 2 fits
}

TEST(EnsembleTest, MemberWiseFitMatchesFit) {
  TimeSensitiveEnsemble whole({0.9, true});
  TimeSensitiveEnsemble parts({0.9, true});
  for (TimeSensitiveEnsemble* e : {&whole, &parts}) {
    e->AddMember(std::make_unique<BiasedNaive>(0.0));
    e->AddMember(std::make_unique<BiasedNaive>(2.0));
  }
  ASSERT_TRUE(whole.Fit(ConstSeries(20, 5.0)).ok());
  // Members fit in any order; the ensemble serves only after FinishFit.
  for (size_t i : {1u, 0u}) {
    ASSERT_EQ(parts.member(i).FitSteps(), 1u);
    ASSERT_TRUE(parts.FitMemberStep(i, 0, ConstSeries(20, 5.0)).ok());
  }
  EXPECT_EQ(parts.Predict(ConstSeries(8, 5.0)).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(parts.FinishFit().ok());
  auto a = whole.Predict(ConstSeries(8, 5.0));
  auto b = parts.Predict(ConstSeries(8, 5.0));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
  // A fitted ensemble refits through Fit only.
  EXPECT_EQ(parts.FitMemberStep(0, 0, ConstSeries(20, 5.0)).code(),
            StatusCode::kFailedPrecondition);
  TimeSensitiveEnsemble empty({0.9, true});
  EXPECT_EQ(empty.FinishFit().code(), StatusCode::kFailedPrecondition);
}

TEST(EnsembleTest, DynamicBeatsWorstMemberOnRegimeShift) {
  // Series whose behaviour changes mid-stream: dynamic weighting should track
  // whichever member currently fits.
  Rng rng(44);
  std::vector<double> series;
  for (int i = 0; i < 300; ++i) series.push_back(10.0 + rng.Gaussian(0, 0.05));
  for (int i = 0; i < 300; ++i) {
    series.push_back(10.0 + 0.05 * i + rng.Gaussian(0, 0.05));
  }
  models::ForecasterOptions opts = SmallOpts();
  TimeSensitiveEnsemble dyn({0.9, true});
  dyn.AddMember(std::make_unique<BiasedNaive>(0.0));   // good on flat part
  dyn.AddMember(std::make_unique<BiasedNaive>(0.05));  // good on trend part
  ASSERT_TRUE(dyn.Fit(series).ok());
  auto eval = EvaluateOnline(dyn, series, 350, opts.window, opts.horizon);
  ASSERT_TRUE(eval.ok());
  double dyn_mse = *ts::MSE(eval->predicted, eval->actual);
  // Worst single member on the trend region is the zero-bias one.
  double naive_mse = 0.0;
  size_t count = 0;
  for (size_t t = 350; t < series.size(); ++t) {
    double e = series[t - 1] - series[t];
    naive_mse += e * e;
    ++count;
  }
  naive_mse /= static_cast<double>(count);
  EXPECT_LT(dyn_mse, naive_mse);
}

TEST(PresetsTest, DBAugurHasPaperMembers) {
  auto ens = MakeDBAugur(SmallOpts());
  ASSERT_TRUE(ens.ok());
  ASSERT_EQ((*ens)->member_count(), 3u);
  EXPECT_EQ((*ens)->member(0).name(), "WFGAN");
  EXPECT_EQ((*ens)->member(1).name(), "TCN");
  EXPECT_EQ((*ens)->member(2).name(), "MLP");
  EXPECT_EQ((*ens)->name(), "DBAugurEnsemble");
}

TEST(PresetsTest, QB5000HasPaperMembers) {
  auto ens = MakeQB5000(SmallOpts());
  ASSERT_TRUE(ens.ok());
  ASSERT_EQ((*ens)->member_count(), 3u);
  EXPECT_EQ((*ens)->member(0).name(), "LR");
  EXPECT_EQ((*ens)->member(1).name(), "LSTM");
  EXPECT_EQ((*ens)->member(2).name(), "KR");
  EXPECT_EQ((*ens)->name(), "FixedEnsemble");
}

TEST(EnsembleTest, SaveStateBeforeFitFails) {
  auto ens = MakeDBAugur(SmallOpts());
  ASSERT_TRUE(ens.ok());
  EXPECT_FALSE((*ens)->SaveState().ok());
}

TEST(EnsembleTest, StateRoundTripRestoresForecastsAndWeights) {
  models::ForecasterOptions opts = SmallOpts();
  opts.epochs = 2;
  Rng rng(7);
  std::vector<double> series(80);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = 10 + 5 * std::sin(static_cast<double>(i) * 0.4) +
                rng.Gaussian(0, 0.1);
  }
  auto ens = MakeDBAugur(opts);
  ASSERT_TRUE(ens.ok());
  ASSERT_TRUE((*ens)->Fit(series).ok());
  // Accumulate some error history so Γ is non-trivial.
  std::vector<double> w(series.end() - 8, series.end());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*ens)->Predict(w).ok());
    ASSERT_TRUE((*ens)->Observe(w, series.back() + i).ok());
  }
  auto blob = (*ens)->SaveState();
  ASSERT_TRUE(blob.ok());

  auto restored = MakeDBAugur(opts);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->LoadState(*blob).ok());
  // Γ histories (and hence weights) restore exactly.
  EXPECT_EQ((*ens)->Distances(), (*restored)->Distances());
  EXPECT_EQ((*ens)->CurrentWeights(), (*restored)->CurrentWeights());
  // Forecasts are bit-identical (float64 member states).
  auto a = (*ens)->Predict(w);
  auto b = (*restored)->Predict(w);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(EnsembleTest, LoadStateRejectsCorruptAndMismatchedBlobs) {
  models::ForecasterOptions opts = SmallOpts();
  opts.epochs = 1;
  std::vector<double> series(60, 5.0);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] += std::sin(static_cast<double>(i));
  }
  auto ens = MakeDBAugur(opts);
  ASSERT_TRUE(ens.ok());
  ASSERT_TRUE((*ens)->Fit(series).ok());
  auto blob = (*ens)->SaveState();
  ASSERT_TRUE(blob.ok());

  auto target = MakeDBAugur(opts);
  ASSERT_TRUE(target.ok());
  // Bad magic.
  std::vector<uint8_t> bad = *blob;
  bad[0] ^= 0xFF;
  EXPECT_FALSE((*target)->LoadState(bad).ok());
  // Truncated.
  std::vector<uint8_t> cut(blob->begin(), blob->begin() + 12);
  EXPECT_FALSE((*target)->LoadState(cut).ok());
  // Member-name mismatch: byte 12 is the first character of the first
  // member's name (after magic, count, and the name's length prefix).
  std::vector<uint8_t> renamed = *blob;
  renamed[12] ^= 0x01;
  EXPECT_FALSE((*target)->LoadState(renamed).ok());

  // A well-framed blob of another fit whose last member (the MLP) has a
  // corrupt state: the earlier members were restored before the MLP failed,
  // so a fitted target must stop serving rather than mix the two fits.
  models::ForecasterOptions other_opts = opts;
  other_opts.seed = opts.seed + 1;
  auto other = MakeDBAugur(other_opts);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->Fit(series).ok());
  auto other_blob = (*other)->SaveState();
  ASSERT_TRUE(other_blob.ok());
  // Walk the frame (magic, count, then one (name, state) pair per member)
  // up to the MLP's state.
  std::vector<uint8_t> bad_mlp = *other_blob;
  BufReader r(bad_mlp);
  uint32_t magic = 0, count = 0;
  ASSERT_TRUE(r.U32(&magic) && r.U32(&count));
  std::string name;
  std::vector<uint8_t> state;
  for (uint32_t i = 0; i + 1 < count; ++i) {
    ASSERT_TRUE(r.Str(&name) && r.Bytes(&state));
  }
  ASSERT_TRUE(r.Str(&name));
  ASSERT_EQ(name, "MLP");
  bad_mlp[r.pos() + 4] ^= 0xFF;  // past the length prefix: the state's magic
  const std::vector<double> window(series.end() - 8, series.end());
  ASSERT_TRUE((*target)->Fit(series).ok());
  ASSERT_TRUE((*target)->Predict(window).ok());
  EXPECT_FALSE((*target)->LoadState(bad_mlp).ok());
  EXPECT_EQ((*target)->Predict(window).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PresetsTest, EndToEndOnSine) {
  models::ForecasterOptions opts;
  opts.window = 24;
  opts.horizon = 1;
  opts.epochs = 10;
  Rng rng(45);
  std::vector<double> series(600);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = 10 + 5 * std::sin(2 * M_PI * static_cast<double>(i) / 48.0) +
                rng.Gaussian(0, 0.1);
  }
  auto ens = MakeDBAugur(opts);
  ASSERT_TRUE(ens.ok());
  ASSERT_TRUE((*ens)->Fit(std::vector<double>(series.begin(),
                                              series.begin() + 420)).ok());
  auto eval = EvaluateOnline(**ens, series, 420, opts.window, opts.horizon);
  ASSERT_TRUE(eval.ok());
  double mse = *ts::MSE(eval->predicted, eval->actual);
  EXPECT_LT(mse, 2.0);  // signal variance 12.5
}

}  // namespace
}  // namespace dbaugur::ensemble
