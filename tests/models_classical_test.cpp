// Tests for the classical forecasters: LR, ARIMA, KR, and the shared
// evaluation harness.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "models/arima.h"
#include "models/factory.h"
#include "models/kernel_regression.h"
#include "models/linear_regression.h"
#include "ts/metrics.h"

namespace dbaugur::models {
namespace {

std::vector<double> SineSeries(size_t n, double period, double noise_sd,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 10.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
           rng.Gaussian(0.0, noise_sd);
  }
  return v;
}

std::vector<double> LinearSeries(size_t n, double slope) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 2.0 + slope * static_cast<double>(i);
  return v;
}

ForecasterOptions Opts(size_t window = 16, size_t horizon = 1) {
  ForecasterOptions o;
  o.window = window;
  o.horizon = horizon;
  return o;
}

TEST(LinearRegressionTest, FitsLinearTrendExactly) {
  auto series = LinearSeries(200, 0.5);
  LinearRegressionForecaster lr(Opts());
  ASSERT_TRUE(lr.Fit(series).ok());
  std::vector<double> window(series.end() - 16, series.end());
  auto pred = lr.Predict(window);
  ASSERT_TRUE(pred.ok());
  double expected = 2.0 + 0.5 * 200.0;
  EXPECT_NEAR(*pred, expected, 1e-3);
}

TEST(LinearRegressionTest, MultiHorizonExtrapolates) {
  auto series = LinearSeries(200, -0.25);
  LinearRegressionForecaster lr(Opts(16, 5));
  ASSERT_TRUE(lr.Fit(series).ok());
  std::vector<double> window(series.end() - 16, series.end());
  auto pred = lr.Predict(window);
  ASSERT_TRUE(pred.ok());
  EXPECT_NEAR(*pred, 2.0 - 0.25 * 204.0, 1e-3);
}

TEST(LinearRegressionTest, PredictBeforeFitFails) {
  LinearRegressionForecaster lr(Opts());
  EXPECT_EQ(lr.Predict(std::vector<double>(16, 1.0)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LinearRegressionTest, WrongWindowSizeFails) {
  auto series = LinearSeries(100, 1.0);
  LinearRegressionForecaster lr(Opts());
  ASSERT_TRUE(lr.Fit(series).ok());
  EXPECT_EQ(lr.Predict(std::vector<double>(5, 1.0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LinearRegressionTest, TooShortSeriesFails) {
  LinearRegressionForecaster lr(Opts(32, 4));
  EXPECT_FALSE(lr.Fit(std::vector<double>(10, 1.0)).ok());
}

TEST(ArimaTest, CapturesAr1Process) {
  // x_t = 0.8 x_{t-1} + eps: ARIMA(1,0,1) should recover phi ~ 0.8.
  Rng rng(3);
  std::vector<double> v(3000, 0.0);
  for (size_t i = 1; i < v.size(); ++i) {
    v[i] = 0.8 * v[i - 1] + rng.Gaussian(0.0, 1.0);
  }
  ForecasterOptions opts = Opts(30, 1);
  ArimaForecaster arima(opts, ArimaOptions{1, 0, 1});
  ASSERT_TRUE(arima.Fit(v).ok());
  ASSERT_EQ(arima.ar_coefficients().size(), 1u);
  EXPECT_NEAR(arima.ar_coefficients()[0], 0.8, 0.1);
}

TEST(ArimaTest, DifferencingHandlesTrend) {
  // Random walk with drift: first differences are stationary.
  Rng rng(5);
  std::vector<double> v(2000, 0.0);
  for (size_t i = 1; i < v.size(); ++i) {
    v[i] = v[i - 1] + 0.5 + rng.Gaussian(0.0, 0.2);
  }
  ArimaForecaster arima(Opts(30, 1), ArimaOptions{2, 1, 2});
  ASSERT_TRUE(arima.Fit(v).ok());
  std::vector<double> window(v.end() - 30, v.end());
  auto pred = arima.Predict(window);
  ASSERT_TRUE(pred.ok());
  // One step ahead should continue the drift.
  EXPECT_NEAR(*pred, v.back() + 0.5, 0.5);
}

TEST(ArimaTest, SecondOrderDifferencing) {
  // Quadratic series: d=2 makes it constant.
  std::vector<double> v(500);
  for (size_t i = 0; i < v.size(); ++i) {
    double x = static_cast<double>(i);
    v[i] = 0.01 * x * x;
  }
  ArimaForecaster arima(Opts(30, 2), ArimaOptions{1, 2, 1});
  ASSERT_TRUE(arima.Fit(v).ok());
  std::vector<double> window(v.end() - 30, v.end());
  auto pred = arima.Predict(window);
  ASSERT_TRUE(pred.ok());
  double x = 501.0;
  EXPECT_NEAR(*pred, 0.01 * x * x, 2.0);
}

TEST(ArimaTest, InvalidOrdersRejected) {
  ArimaForecaster bad_d(Opts(), ArimaOptions{1, 3, 1});
  EXPECT_FALSE(bad_d.Fit(LinearSeries(300, 1.0)).ok());
  ArimaForecaster no_terms(Opts(), ArimaOptions{0, 1, 0});
  EXPECT_FALSE(no_terms.Fit(LinearSeries(300, 1.0)).ok());
}

TEST(ArimaTest, SeriesTooShortRejected) {
  ArimaForecaster arima(Opts(), ArimaOptions{2, 1, 2});
  EXPECT_FALSE(arima.Fit(std::vector<double>(20, 1.0)).ok());
}

TEST(KernelRegressionTest, InterpolatesSine) {
  auto series = SineSeries(1200, 48.0, 0.05, 7);
  KernelRegressionForecaster kr(Opts(24, 1));
  ASSERT_TRUE(kr.Fit(series).ok());
  auto eval = EvaluateForecaster(kr, series, 840, 24, 1);
  ASSERT_TRUE(eval.ok());
  auto mse = ts::MSE(eval->predicted, eval->actual);
  ASSERT_TRUE(mse.ok());
  EXPECT_LT(*mse, 0.5);  // signal variance is 12.5, so this is a real fit
}

TEST(KernelRegressionTest, SubsamplingCapsStorage) {
  auto series = SineSeries(4000, 48.0, 0.05, 9);
  KernelRegressionOptions kopts;
  kopts.max_samples = 300;
  KernelRegressionForecaster kr(Opts(24, 1), kopts);
  ASSERT_TRUE(kr.Fit(series).ok());
  EXPECT_EQ(kr.stored_samples(), 300u);
}

TEST(KernelRegressionTest, ExplicitBandwidthUsed) {
  KernelRegressionOptions kopts;
  kopts.bandwidth = 2.5;
  KernelRegressionForecaster kr(Opts(8, 1), kopts);
  ASSERT_TRUE(kr.Fit(SineSeries(300, 24.0, 0.1, 11)).ok());
  EXPECT_DOUBLE_EQ(kr.bandwidth(), 2.5);
}

TEST(KernelRegressionTest, FarQueryFallsBackToMean) {
  auto series = SineSeries(300, 24.0, 0.1, 13);
  KernelRegressionOptions kopts;
  kopts.bandwidth = 1e-6;  // kernels vanish for any non-identical window
  KernelRegressionForecaster kr(Opts(8, 1), kopts);
  ASSERT_TRUE(kr.Fit(series).ok());
  std::vector<double> far(8, 1e6);
  auto pred = kr.Predict(far);
  ASSERT_TRUE(pred.ok());
  EXPECT_NEAR(*pred, 10.0, 2.0);  // mean of the sine series
}

TEST(EvaluateForecasterTest, AlignmentAndErrors) {
  auto series = LinearSeries(100, 1.0);
  LinearRegressionForecaster lr(Opts(10, 3));
  ASSERT_TRUE(lr.Fit(series).ok());
  auto eval = EvaluateForecaster(lr, series, 70, 10, 3);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->predicted.size(), 30u);
  EXPECT_EQ(eval->target_index.front(), 70u);
  EXPECT_EQ(eval->target_index.back(), 99u);
  auto mse = ts::MSE(eval->predicted, eval->actual);
  ASSERT_TRUE(mse.ok());
  EXPECT_LT(*mse, 1e-6);
}

TEST(EvaluateForecasterTest, RejectsDegenerateSetups) {
  auto series = LinearSeries(50, 1.0);
  LinearRegressionForecaster lr(Opts(10, 1));
  ASSERT_TRUE(lr.Fit(series).ok());
  EXPECT_FALSE(EvaluateForecaster(lr, series, 50, 10, 1).ok());
  EXPECT_FALSE(EvaluateForecaster(lr, series, 5, 10, 1).ok());
  EXPECT_FALSE(EvaluateForecaster(lr, series, 20, 0, 1).ok());
}

TEST(FactoryTest, BuildsEveryKnownModel) {
  for (const char* name : {"LR", "ARIMA", "MLP", "LSTM", "TCN", "KR", "WFGAN"}) {
    auto m = MakeForecaster(name, Opts());
    ASSERT_TRUE(m.ok()) << name;
    EXPECT_EQ((*m)->name(), name);
  }
}

TEST(FactoryTest, UnknownNameFails) {
  auto m = MakeForecaster("Prophet", Opts());
  EXPECT_EQ(m.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace dbaugur::models
