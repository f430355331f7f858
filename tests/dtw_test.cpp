// Tests for windowed DTW, envelopes, and the lower-bound cascade.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/simd.h"
#include "dtw/dtw.h"

namespace dbaugur::dtw {
namespace {

double Euclid(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s);
}

TEST(DtwTest, IdenticalTracesZeroDistance) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  auto d = DtwDistance(a, a, {2});
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 0.0);
}

TEST(DtwTest, KnownSmallExample) {
  // a = [0,0,1], b = [0,1,1]: alignment (0,0)(1,0)... optimal is 0.
  std::vector<double> a = {0, 0, 1};
  std::vector<double> b = {0, 1, 1};
  auto d = DtwDistance(a, b, {-1});
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 0.0);
  // Euclidean (lock-step) distance is sqrt(1) = 1: DTW absorbs the shift.
  EXPECT_DOUBLE_EQ(Euclid(a, b), 1.0);
}

TEST(DtwTest, NeverExceedsEuclidean) {
  // The identity alignment is one warping path, so DTW <= Euclidean.
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(40), b(40);
    for (size_t i = 0; i < 40; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    auto d = DtwDistance(a, b, {40});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(*d, Euclid(a, b) + 1e-9);
  }
}

TEST(DtwTest, ShiftedSineIsCloseUnderDtwNotEuclidean) {
  std::vector<double> a(64), b(64);
  for (size_t i = 0; i < 64; ++i) {
    a[i] = std::sin(2 * M_PI * static_cast<double>(i) / 16.0);
    b[i] = std::sin(2 * M_PI * static_cast<double>(i + 3) / 16.0);  // shift 3
  }
  auto d = DtwDistance(a, b, {8});
  ASSERT_TRUE(d.ok());
  double euclid = Euclid(a, b);
  // DTW absorbs the interior of the shift; only boundary cells (where first
  // must match first) keep residual cost, so a ~3.5x reduction remains.
  EXPECT_LT(*d, euclid * 0.35) << "dtw=" << *d << " euclid=" << euclid;
}

TEST(DtwTest, DifferentLengthsSupported) {
  std::vector<double> a = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<double> b = {0, 2, 4, 6};  // same ramp, half the samples
  auto d = DtwDistance(a, b, {1});
  ASSERT_TRUE(d.ok());  // band widened to |n-m|
  EXPECT_LT(*d, 3.0);
}

TEST(DtwTest, WindowConstraintIncreasesDistance) {
  // A large shift that a narrow band cannot absorb.
  std::vector<double> a(50, 0.0), b(50, 0.0);
  for (size_t i = 0; i < 10; ++i) a[i + 5] = 1.0;
  for (size_t i = 0; i < 10; ++i) b[i + 30] = 1.0;
  auto narrow = DtwDistance(a, b, {2});
  auto wide = DtwDistance(a, b, {-1});
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_GT(*narrow, *wide);
  EXPECT_DOUBLE_EQ(*wide, 0.0);
}

TEST(DtwTest, EmptyTraceRejected) {
  const std::vector<double> empty, one = {1.0};
  EXPECT_FALSE(DtwDistance(empty, one, {2}).ok());
  EXPECT_FALSE(DtwDistance(one, empty, {2}).ok());
}

TEST(DtwTest, EarlyAbandonReturnsInfinity) {
  std::vector<double> a(20, 0.0), b(20, 100.0);
  auto d = DtwDistance(a, b, {5}, /*upper_bound=*/1.0);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isinf(*d));
}

TEST(DtwTest, EarlyAbandonAgreesWhenWithinBound) {
  Rng rng(7);
  std::vector<double> a(30), b(30);
  for (size_t i = 0; i < 30; ++i) {
    a[i] = rng.Gaussian();
    b[i] = a[i] + rng.Gaussian(0, 0.1);
  }
  auto exact = DtwDistance(a, b, {5});
  auto bounded = DtwDistance(a, b, {5}, 1000.0);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(bounded.ok());
  EXPECT_DOUBLE_EQ(*exact, *bounded);
}

TEST(EnvelopeTest, BoundsContainSequence) {
  Rng rng(9);
  std::vector<double> s(50);
  for (double& x : s) x = rng.Gaussian();
  Envelope env = BuildEnvelope(s, 4);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_LE(env.lower[i], s[i]);
    EXPECT_GE(env.upper[i], s[i]);
  }
}

TEST(EnvelopeTest, WiderWindowLoosensEnvelope) {
  std::vector<double> s = {0, 5, 1, 4, 2, 3};
  Envelope narrow = BuildEnvelope(s, 1);
  Envelope wide = BuildEnvelope(s, 5);
  for (size_t i = 0; i < s.size(); ++i) {
    EXPECT_LE(wide.lower[i], narrow.lower[i]);
    EXPECT_GE(wide.upper[i], narrow.upper[i]);
  }
}

TEST(LowerBoundTest, LbKeoghIsLowerBoundOfDtw) {
  Rng rng(11);
  const int kWindow = 5;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(32), b(32);
    for (size_t i = 0; i < 32; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    Envelope env = BuildEnvelope(b, kWindow);
    double lb = LbKeogh(a, env);
    auto d = DtwDistance(a, b, {kWindow});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(lb, *d + 1e-9) << "trial " << trial;
  }
}

TEST(LowerBoundTest, LbKimIsLowerBoundOfDtw) {
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(20), b(20);
    for (size_t i = 0; i < 20; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    double lb = LbKim(a, b);
    auto d = DtwDistance(a, b, {20});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(lb, *d + 1e-9);
  }
}

TEST(LowerBoundTest, LbKimShortSeriesCases) {
  // 1×m: the first and last path cells are distinct (b.front() and b.back()
  // both align against a[0]), so the sqrt(df²+dl²) form applies and is
  // tighter than the old max(df, dl) fallback.
  std::vector<double> one = {2.0};
  std::vector<double> m = {0.0, 1.0, 5.0};
  double lb_1m = LbKim(one, m);
  EXPECT_DOUBLE_EQ(lb_1m, std::sqrt(4.0 + 9.0));
  EXPECT_GT(lb_1m, std::max(std::fabs(2.0 - 0.0), std::fabs(2.0 - 5.0)));
  auto d_1m = DtwDistance(one, m, {-1});
  ASSERT_TRUE(d_1m.ok());
  EXPECT_LE(lb_1m, *d_1m + 1e-12);  // DTW(1×m) = sqrt(4 + 1 + 9)

  // n×1 mirror.
  double lb_m1 = LbKim(m, one);
  EXPECT_DOUBLE_EQ(lb_m1, std::sqrt(4.0 + 9.0));
  auto d_m1 = DtwDistance(m, one, {-1});
  ASSERT_TRUE(d_m1.ok());
  EXPECT_LE(lb_m1, *d_m1 + 1e-12);

  // 1×1: a single path cell — df and dl are the same cost, so the bound
  // must fall back to max(df, dl) = |a0 - b0| = the exact DTW distance.
  std::vector<double> b1 = {5.0};
  double lb_11 = LbKim(one, b1);
  EXPECT_DOUBLE_EQ(lb_11, 3.0);
  auto d_11 = DtwDistance(one, b1, {0});
  ASSERT_TRUE(d_11.ok());
  EXPECT_DOUBLE_EQ(*d_11, 3.0);
  EXPECT_LE(lb_11, *d_11 + 1e-12);
}

TEST(LowerBoundTest, LbKimAdmissibleOnRandomShortSeries) {
  Rng rng(21);
  const std::pair<size_t, size_t> shapes[] = {
      {1, 1}, {1, 2}, {2, 1}, {1, 5}, {5, 1}, {1, 20}, {20, 1}, {2, 2}};
  for (auto [n, m] : shapes) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<double> a(n), b(m);
      for (double& x : a) x = rng.Gaussian();
      for (double& x : b) x = rng.Gaussian();
      double lb = LbKim(a, b);
      auto d = DtwDistance(a, b, {-1});
      ASSERT_TRUE(d.ok());
      EXPECT_LE(lb, *d + 1e-9) << n << "x" << m << " trial " << trial;
    }
  }
}

TEST(LowerBoundTest, SymmetricKeoghAdmissibleAndAtLeastOneSided) {
  Rng rng(23);
  const int kWindow = 5;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> a(32), b(32);
    for (size_t i = 0; i < 32; ++i) {
      a[i] = rng.Gaussian();
      b[i] = rng.Gaussian();
    }
    Envelope env_a = BuildEnvelope(a, kWindow);
    Envelope env_b = BuildEnvelope(b, kWindow);
    double sym = LbKeoghSymmetric(a, env_a, b, env_b);
    // Dominates both one-sided bounds...
    EXPECT_GE(sym, LbKeogh(a, env_b)) << "trial " << trial;
    EXPECT_GE(sym, LbKeogh(b, env_a)) << "trial " << trial;
    // ...and both directions stay admissible against the symmetric DTW.
    auto d = DtwDistance(a, b, {kWindow});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(sym, *d + 1e-9) << "trial " << trial;
  }
}

TEST(LowerBoundTest, LbKeoghZeroForDifferentLengths) {
  std::vector<double> a = {1, 2, 3};
  Envelope env = BuildEnvelope({1, 2}, 1);
  EXPECT_DOUBLE_EQ(LbKeogh(a, env), 0.0);
}

TEST(CascadeTest, NeverRejectsTrueNeighbors) {
  Rng rng(15);
  const int kWindow = 5;
  CascadingDtw cascade({kWindow});
  int accepted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> a(24), b(24);
    for (size_t i = 0; i < 24; ++i) {
      a[i] = rng.Gaussian();
      b[i] = a[i] + rng.Gaussian(0, 0.3);
    }
    Envelope env = BuildEnvelope(b, kWindow);
    auto exact = DtwDistance(a, b, {kWindow});
    ASSERT_TRUE(exact.ok());
    double radius = 1.5;
    auto within = cascade.WithinRadius(a, b, env, radius);
    ASSERT_TRUE(within.ok());
    EXPECT_EQ(*within, *exact <= radius) << "trial " << trial;
    if (*within) ++accepted;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(cascade.stats().full_dtw, 0);
}

TEST(CascadeTest, DistanceEqualsPlainDtwWhenNotPruned) {
  Rng rng(25);
  const int kWindow = 5;
  CascadingDtw cascade({kWindow});
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> a(28), b(28);
    for (size_t i = 0; i < 28; ++i) {
      a[i] = rng.Gaussian();
      b[i] = a[i] + rng.Gaussian(0, 0.2);
    }
    Envelope env_a = BuildEnvelope(a, kWindow);
    Envelope env_b = BuildEnvelope(b, kWindow);
    const EnvelopeView view_a = env_a;
    auto exact = DtwDistance(a, b, {kWindow});
    ASSERT_TRUE(exact.ok());
    // No bound: the cascade cannot prune and must return the exact distance.
    auto unbounded = cascade.Distance(a, b, env_b, kNoBound);
    ASSERT_TRUE(unbounded.ok());
    EXPECT_DOUBLE_EQ(*unbounded, *exact) << "trial " << trial;
    // Generous bound, symmetric form: still no pruning, still exact.
    auto bounded = cascade.Distance(a, b, env_b, 1e6, &view_a);
    ASSERT_TRUE(bounded.ok());
    EXPECT_DOUBLE_EQ(*bounded, *exact) << "trial " << trial;
  }
  EXPECT_EQ(cascade.stats().kim_rejections, 0);
  EXPECT_EQ(cascade.stats().keogh_rejections, 0);
}

TEST(CascadeTest, SymmetricBoundRejectsWhereOneSidedCannot) {
  // Flat query vs oscillating candidate: the candidate's envelope is wide,
  // so the flat series sits inside it (one-sided bound 0) — but the flat
  // series' envelope is degenerate, so the reverse direction sees the full
  // oscillation and rejects without any DTW.
  const int kWindow = 2;
  std::vector<double> flat(32, 0.0);
  std::vector<double> spiky(32, 0.0);
  for (size_t i = 1; i + 1 < spiky.size(); i += 2) spiky[i] = 3.0;
  Envelope env_flat = BuildEnvelope(flat, kWindow);
  Envelope env_spiky = BuildEnvelope(spiky, kWindow);
  const double radius = 5.0;
  ASSERT_LE(LbKim(flat, spiky), radius);          // Kim can't decide this
  ASSERT_EQ(LbKeogh(flat, env_spiky), 0.0);       // one-sided can't either
  ASSERT_GT(LbKeogh(spiky, env_flat), radius);    // the reverse side can

  CascadingDtw one_sided({kWindow});
  auto d1 = one_sided.Distance(flat, spiky, env_spiky, radius);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(one_sided.stats().full_dtw, 1);

  CascadingDtw symmetric({kWindow});
  const EnvelopeView view_flat = env_flat;
  auto d2 = symmetric.Distance(flat, spiky, env_spiky, radius, &view_flat);
  ASSERT_TRUE(d2.ok());
  EXPECT_TRUE(std::isinf(*d2));
  EXPECT_EQ(symmetric.stats().full_dtw, 0);
  EXPECT_EQ(symmetric.stats().keogh_rejections, 1);
  // Both agree on the decision: the true distance really is over the radius.
  auto exact = DtwDistance(flat, spiky, {kWindow});
  ASSERT_TRUE(exact.ok());
  EXPECT_GT(*exact, radius);
}

TEST(CascadeTest, CountersTrackRejections) {
  CascadingDtw cascade({3});
  std::vector<double> a(10, 0.0);
  std::vector<double> far(10, 100.0);
  Envelope env = BuildEnvelope(far, 3);
  auto d = cascade.Distance(a, far, env, 1.0);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(std::isinf(*d));
  EXPECT_EQ(cascade.stats().kim_rejections, 1);
  EXPECT_EQ(cascade.stats().full_dtw, 0);
}

class ThresholdTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetForcedTier(); }
};

TEST_F(ThresholdTest, SquaredThresholdDecidesLikeTheSquareRoot) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  // 10^5 non-negative bit patterns: every exponent equally likely,
  // subnormals and a few infinities and NaNs included.
  Rng rng(41);
  std::vector<double> spread(100000);
  for (double& s : spread) s = std::bit_cast<double>(rng.engine()() >> 1);
  for (double rho : {0.0, std::numeric_limits<double>::denorm_min(), 1e-200,
                     0x1p-500, 0.1, 1.0 / 3.0, 0.5, 1.0, 3.0, 1e9, 1e154,
                     1e200, DBL_MAX}) {
    SCOPED_TRACE(testing::Message() << "rho " << rho);
    const double t = SquaredRadiusThreshold(rho);
    // The largest double whose square root stays within ρ.
    EXPECT_LE(std::sqrt(t), rho);
    EXPECT_GT(std::sqrt(std::nextafter(t, kInf)), rho);
    std::vector<double> probes = {0.0, kInf, kNaN};
    for (double center : {t, rho * rho}) {
      double below = center, above = center;
      probes.push_back(center);
      for (int ulp = 1; ulp <= 2; ++ulp) {
        below = std::nextafter(below, -kInf);
        above = std::nextafter(above, kInf);
        probes.push_back(below);
        probes.push_back(above);
      }
    }
    probes.insert(probes.end(), spread.begin(), spread.end());
    size_t mismatches = 0;
    for (double s : probes) {
      if ((s > t) != (std::sqrt(s) > rho)) {
        if (mismatches++ == 0) ADD_FAILURE() << "first mismatch at s = " << s;
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST_F(ThresholdTest, KeoghSumsRejectMatchesTheMaxOfRoots) {
  // The cascade's two-sided tier rejects when
  // std::max(√first, √second) > ρ; the helper must take the same decision
  // on the sums, NaN and ±inf included, and read the second sum only when
  // the first decides nothing.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (double rho : {0.0, 0.5, 1.0, 1e200}) {
    const double t = SquaredRadiusThreshold(rho);
    const double sums[] = {0.0,  t / 2, t, std::nextafter(t, kInf), 4 * t + 1,
                           kInf, kNaN};
    for (double first : sums) {
      for (double second : sums) {
        bool read_second = false;
        const bool rejected = KeoghSumsReject(first, t, [&] {
          read_second = true;
          return second;
        });
        EXPECT_EQ(rejected,
                  std::max(std::sqrt(first), std::sqrt(second)) > rho)
            << "rho " << rho << " first " << first << " second " << second;
        EXPECT_EQ(read_second, !(first > t) && !std::isnan(first))
            << "rho " << rho << " first " << first;
      }
    }
  }
}

TEST_F(ThresholdTest, LbKeoghIsTheRootOfTheSharedSumOnEveryTier) {
  simd::Tier tiers[3];
  const int count = simd::SupportedTiers(tiers);
  Rng rng(43);
  for (int t = 0; t < count; ++t) {
    ASSERT_TRUE(simd::ForceTier(tiers[t]));
    SCOPED_TRACE(simd::TierName(tiers[t]));
    for (size_t n : {1u, 2u, 3u, 5u, 8u, 14u, 31u}) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> q(n), c(n);
        for (size_t i = 0; i < n; ++i) {
          q[i] = rng.Gaussian();
          c[i] = rng.Gaussian();
        }
        const Envelope env = BuildEnvelope(c, 2);
        const EnvelopeView view{env.lower, env.upper};
        const double sum = LbKeoghSum(q, view);
        EXPECT_EQ(std::bit_cast<uint64_t>(LbKeogh(q, env)),
                  std::bit_cast<uint64_t>(std::sqrt(sum)));
        EXPECT_EQ(std::bit_cast<uint64_t>(ActiveLbKeoghSum()(
                      q.data(), env.lower.data(), env.upper.data(), n)),
                  std::bit_cast<uint64_t>(sum));
        if (tiers[t] == simd::Tier::kScalar) {
          // The scalar tier is the plain loop, in index order.
          double want = 0.0;
          for (size_t i = 0; i < n; ++i) {
            if (q[i] > env.upper[i]) {
              want += (q[i] - env.upper[i]) * (q[i] - env.upper[i]);
            } else if (q[i] < env.lower[i]) {
              want += (env.lower[i] - q[i]) * (env.lower[i] - q[i]);
            }
          }
          EXPECT_EQ(std::bit_cast<uint64_t>(sum), std::bit_cast<uint64_t>(want));
        }
      }
    }
  }
}

}  // namespace
}  // namespace dbaugur::dtw
