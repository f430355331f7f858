// Tests that the synthetic workload generators reproduce the shape
// properties the paper's evaluation depends on (DESIGN.md §3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/math_utils.h"
#include "ts/analysis.h"
#include "workloads/generators.h"

namespace dbaugur::workloads {
namespace {

using ts::Autocorrelation;

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  const double ma = Mean(a), mb = Mean(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  return num / std::sqrt(da * db);
}

TEST(BusTrackerGenTest, DeterministicInSeed) {
  BusTrackerOptions opts;
  opts.days = 2;
  auto a = GenerateBusTracker(opts);
  auto b = GenerateBusTracker(opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 97) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(BusTrackerGenTest, OneDayCyclicPattern) {
  BusTrackerOptions opts;
  opts.days = 14;
  auto s = GenerateBusTracker(opts);
  size_t day = 1440;  // per-minute samples
  EXPECT_EQ(s.size(), 14u * day);
  // Fig. 2a: "roughly follows a one-day cyclic pattern". Evaluate at the
  // 10-minute aggregation the experiments use, which suppresses the
  // per-minute Poisson noise.
  auto agg = s.AggregateSum(10);
  ASSERT_TRUE(agg.ok());
  // The paper says "roughly follows a one-day cyclic pattern" with "various
  // sudden crests and troughs" — those bursts intentionally depress the
  // day-lag autocorrelation, so require a clear but not pristine cycle.
  double day_ac = Autocorrelation(agg->values(), 144);
  double off_ac = Autocorrelation(agg->values(), 48);
  EXPECT_GT(day_ac, 0.35);
  EXPECT_GT(day_ac, 2.0 * off_ac);
}

TEST(BusTrackerGenTest, WeekendsQuieter) {
  BusTrackerOptions opts;
  opts.days = 14;
  auto s = GenerateBusTracker(opts);
  size_t day = 1440;
  double weekday_sum = 0, weekend_sum = 0;
  size_t wd = 0, we = 0;
  for (size_t d = 0; d < 14; ++d) {
    double sum = 0;
    for (size_t i = 0; i < day; ++i) sum += s[d * day + i];
    if (d % 7 >= 5) {
      weekend_sum += sum;
      ++we;
    } else {
      weekday_sum += sum;
      ++wd;
    }
  }
  EXPECT_LT(weekend_sum / static_cast<double>(we),
            0.8 * weekday_sum / static_cast<double>(wd));
}

TEST(BusTrackerGenTest, HasCrestsAndTroughs) {
  BusTrackerOptions opts;
  opts.days = 7;
  auto s = GenerateBusTracker(opts);
  // Sudden bursts: some samples far above the local daily profile.
  double mean = Mean(s.values());
  double mx = *std::max_element(s.values().begin(), s.values().end());
  EXPECT_GT(mx, 3.0 * mean);
}

TEST(AlibabaGenTest, UtilizationBounded) {
  AlibabaOptions opts;
  auto s = GenerateAlibabaDisk(opts);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s[i], 0.0);
    EXPECT_LE(s[i], 1.0);
  }
  EXPECT_EQ(s.size(), 6u * 288u);  // 6 days at 5-minute samples
}

TEST(AlibabaGenTest, GoodLocalLinearity) {
  // §VI-B: "Alibaba Cluster Trace has good local linearity" — strong lag-1
  // autocorrelation, much stronger than BusTracker's per-minute counts show
  // relative to their noise.
  auto s = GenerateAlibabaDisk(AlibabaOptions{});
  EXPECT_GT(Autocorrelation(s.values(), 1), 0.85);
}

TEST(AlibabaGenTest, HasBursts) {
  auto s = GenerateAlibabaDisk(AlibabaOptions{});
  double mean = Mean(s.values());
  double sd = StdDev(s.values());
  size_t spikes = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] > mean + 3 * sd) ++spikes;
  }
  EXPECT_GT(spikes, 0u);
}

TEST(PeriodicGenTest, StrongPeriodicity) {
  PeriodicOptions opts;
  auto s = GeneratePeriodic(opts);
  EXPECT_EQ(s.size(), opts.periods * opts.steps_per_period);
  EXPECT_GT(Autocorrelation(s.values(), opts.steps_per_period), 0.9);
  for (size_t i = 0; i < s.size(); ++i) EXPECT_GE(s[i], 0.0);
}

TEST(ComplexGenTest, TrendPresent) {
  ComplexOptions opts;
  opts.days = 30;
  auto s = GenerateComplex(opts);
  // First-third mean < last-third mean thanks to the linear trend.
  size_t third = s.size() / 3;
  double first = 0, last = 0;
  for (size_t i = 0; i < third; ++i) first += s[i];
  for (size_t i = s.size() - third; i < s.size(); ++i) last += s[i];
  EXPECT_GT(last, first * 1.15);
}

TEST(ComplexGenTest, WeekdayFactorVisible) {
  ComplexOptions opts;
  opts.days = 28;
  opts.holiday_prob = 0.0;
  opts.noise_sd = 0.0;
  auto s = GenerateComplex(opts);
  double weekday = 0, weekend = 0;
  size_t wd = 0, we = 0;
  for (size_t d = 0; d < opts.days; ++d) {
    double sum = 0;
    for (size_t i = 0; i < opts.steps_per_day; ++i) {
      sum += s[d * opts.steps_per_day + i];
    }
    if (d % 7 < 5) {
      weekday += sum;
      ++wd;
    } else {
      weekend += sum;
      ++we;
    }
  }
  EXPECT_GT(weekday / static_cast<double>(wd),
            1.1 * weekend / static_cast<double>(we));
}

TEST(WarpedFamilyGenTest, MembersShareShapeUpToWarp) {
  WarpedFamilyOptions opts;
  opts.members = 5;
  opts.noise_sd = 0.0;
  opts.amp_low = opts.amp_high = 1.0;
  auto fam = GenerateWarpedFamily(opts);
  ASSERT_EQ(fam.size(), 5u);
  // Each pair correlates strongly at the right lag; with shifts <= 6 the
  // zero-lag correlation can be mediocre, but never anti-correlated.
  for (size_t i = 1; i < fam.size(); ++i) {
    EXPECT_GT(PearsonCorrelation(fam[0].values(), fam[i].values()), -0.2);
  }
}

}  // namespace
}  // namespace dbaugur::workloads
