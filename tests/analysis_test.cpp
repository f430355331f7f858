// Tests for trace analysis utilities.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ts/analysis.h"

namespace dbaugur {
namespace {

std::vector<double> Sine(size_t n, double period, double noise, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2 * M_PI * static_cast<double>(i) / period) +
           rng.Gaussian(0, noise);
  }
  return v;
}

TEST(AutocorrelationTest, KnownValues) {
  // Alternating series: AC(1) ~ -1, AC(2) ~ 1.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_DOUBLE_EQ(ts::Autocorrelation(v, 0), 1.0);
  EXPECT_LT(ts::Autocorrelation(v, 1), -0.9);
  EXPECT_GT(ts::Autocorrelation(v, 2), 0.9);
}

TEST(AutocorrelationTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(ts::Autocorrelation({}, 1), 0.0);
  EXPECT_DOUBLE_EQ(ts::Autocorrelation({1.0}, 1), 0.0);
  EXPECT_DOUBLE_EQ(ts::Autocorrelation({5, 5, 5, 5}, 1), 0.0);  // constant
  std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(ts::Autocorrelation(v, 5), 0.0);  // lag beyond size
}

TEST(AutocorrelationTest, FunctionMatchesPointwise) {
  auto v = Sine(200, 24, 0.1, 3);
  auto acf = ts::AutocorrelationFunction(v, 30);
  ASSERT_EQ(acf.size(), 30u);
  for (size_t lag = 1; lag <= 30; ++lag) {
    EXPECT_NEAR(acf[lag - 1], ts::Autocorrelation(v, lag), 1e-12);
  }
}

TEST(DetectPeriodTest, FindsSinePeriod) {
  auto v = Sine(400, 24, 0.05, 5);
  auto p = ts::DetectPeriod(v, 4, 60);
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(static_cast<double>(p->period), 24.0, 1.0);
  EXPECT_GT(p->strength, 0.8);
}

TEST(DetectPeriodTest, WhiteNoiseHasNoPeriod) {
  Rng rng(7);
  std::vector<double> v(400);
  for (double& x : v) x = rng.Gaussian();
  auto p = ts::DetectPeriod(v, 4, 60, 0.3);
  EXPECT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kNotFound);
}

TEST(DetectPeriodTest, Validation) {
  auto v = Sine(100, 10, 0.0, 9);
  EXPECT_FALSE(ts::DetectPeriod(v, 0, 20).ok());
  EXPECT_FALSE(ts::DetectPeriod(v, 30, 20).ok());
  EXPECT_FALSE(ts::DetectPeriod(v, 4, 99).ok());
}

}  // namespace
}  // namespace dbaugur
