// Unit tests for src/ts: Series, metrics, scalers, window datasets.

#include <gtest/gtest.h>

#include "ts/metrics.h"
#include "ts/scaler.h"
#include "ts/series.h"
#include "ts/window_dataset.h"

namespace dbaugur::ts {
namespace {

TEST(SeriesTest, BasicAccessors) {
  Series s(1000, 60, {1, 2, 3}, "q0");
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.start(), 1000);
  EXPECT_EQ(s.interval_seconds(), 60);
  EXPECT_EQ(s.name(), "q0");
  EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(SeriesTest, AggregateSum) {
  Series s(0, 60, {1, 2, 3, 4, 5});
  auto agg = s.AggregateSum(2);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->size(), 2u);  // trailing partial dropped
  EXPECT_DOUBLE_EQ((*agg)[0], 3.0);
  EXPECT_DOUBLE_EQ((*agg)[1], 7.0);
  EXPECT_EQ(agg->interval_seconds(), 120);
}

TEST(SeriesTest, AggregateMean) {
  Series s(0, 60, {2, 4, 6, 8});
  auto agg = s.AggregateMean(2);
  ASSERT_TRUE(agg.ok());
  EXPECT_DOUBLE_EQ((*agg)[0], 3.0);
  EXPECT_DOUBLE_EQ((*agg)[1], 7.0);
}

TEST(SeriesTest, AggregateZeroFactorFails) {
  Series s(0, 60, {1, 2});
  EXPECT_FALSE(s.AggregateSum(0).ok());
}

TEST(SeriesTest, AverageIsElementwiseMean) {
  std::vector<Series> traces = {Series(0, 60, {1, 2}), Series(0, 60, {3, 4})};
  auto avg = Series::Average(traces);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ((*avg)[0], 2.0);
  EXPECT_DOUBLE_EQ((*avg)[1], 3.0);
}

TEST(SeriesTest, AverageLengthMismatchFails) {
  std::vector<Series> traces = {Series(0, 60, {1, 2}), Series(0, 60, {3})};
  EXPECT_FALSE(Series::Average(traces).ok());
  EXPECT_FALSE(Series::Average({}).ok());
}

TEST(SeriesTest, DifferenceAndUndifference) {
  std::vector<double> v = {1, 3, 6, 10};
  auto d1 = Difference(v, 1);
  ASSERT_EQ(d1.size(), 3u);
  EXPECT_DOUBLE_EQ(d1[0], 2.0);
  EXPECT_DOUBLE_EQ(d1[2], 4.0);
  auto d2 = Difference(v, 2);
  ASSERT_EQ(d2.size(), 2u);
  EXPECT_DOUBLE_EQ(d2[0], 1.0);
}

TEST(MetricsTest, MseMaeRmse) {
  std::vector<double> p = {1, 2, 3};
  std::vector<double> a = {1, 4, 3};
  auto mse = MSE(p, a);
  ASSERT_TRUE(mse.ok());
  EXPECT_NEAR(*mse, 4.0 / 3.0, 1e-12);
  auto mae = MAE(p, a);
  ASSERT_TRUE(mae.ok());
  EXPECT_NEAR(*mae, 2.0 / 3.0, 1e-12);
}

TEST(MetricsTest, PerfectForecastIsZero) {
  std::vector<double> v = {5, 6, 7};
  EXPECT_DOUBLE_EQ(*MSE(v, v), 0.0);
  EXPECT_DOUBLE_EQ(*SMAPE(v, v), 0.0);
}

TEST(MetricsTest, ShapeErrors) {
  EXPECT_FALSE(MSE({1}, {1, 2}).ok());
  EXPECT_FALSE(MSE({}, {}).ok());
}

TEST(ScalerTest, MinMaxRoundTrip) {
  MinMaxScaler s;
  ASSERT_TRUE(s.Fit({2, 4, 10}).ok());
  EXPECT_DOUBLE_EQ(s.Transform(2), 0.0);
  EXPECT_DOUBLE_EQ(s.Transform(10), 1.0);
  EXPECT_DOUBLE_EQ(s.Inverse(s.Transform(7.3)), 7.3);
}

TEST(ScalerTest, MinMaxConstantSeries) {
  MinMaxScaler s;
  ASSERT_TRUE(s.Fit({5, 5, 5}).ok());
  EXPECT_DOUBLE_EQ(s.Transform(5), 0.5);
  EXPECT_DOUBLE_EQ(s.Inverse(0.5), 5.0);
}

TEST(ScalerTest, MinMaxEmptyFails) {
  MinMaxScaler s;
  EXPECT_FALSE(s.Fit({}).ok());
}

TEST(WindowDatasetTest, ShapesAndTargets) {
  std::vector<double> v = {0, 1, 2, 3, 4, 5};
  auto ws = MakeWindows(v, {3, 2});
  ASSERT_TRUE(ws.ok());
  // Windows [0,1,2]->4, [1,2,3]->5.
  ASSERT_EQ(ws->size(), 2u);
  EXPECT_DOUBLE_EQ((*ws)[0].target, 4.0);
  EXPECT_EQ((*ws)[0].target_index, 4u);
  EXPECT_DOUBLE_EQ((*ws)[1].window[0], 1.0);
  EXPECT_DOUBLE_EQ((*ws)[1].target, 5.0);
}

TEST(WindowDatasetTest, DegenerateOptionsFail) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_FALSE(MakeWindows(v, {0, 1}).ok());
  EXPECT_FALSE(MakeWindows(v, {2, 0}).ok());
  EXPECT_FALSE(MakeWindows(v, {4, 1}).ok());
}

}  // namespace
}  // namespace dbaugur::ts
