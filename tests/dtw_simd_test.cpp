// Per-tier tests for the vectorized DTW cascade (dtw/dtw_simd.inc).
//
// Contract under test (dtw/dtw_simd.h): the anti-diagonal wavefront DTW and
// the envelope construction are bit-identical to the scalar tier on every
// input; LB_Keogh may differ by a few ULP (W-partial-sum reduction) but must
// stay an admissible lower bound; and the full cascade returns the same
// accept/reject decisions and distances as plain DTW on every tier.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "dtw/dtw.h"

namespace dbaugur::dtw {
namespace {

using simd::Tier;

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Tier> HostTiers() {
  Tier out[3];
  int count = simd::SupportedTiers(out);
  return std::vector<Tier>(out, out + count);
}

std::vector<double> RandomTrace(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.Uniform(-3.0, 3.0);
  return v;
}

class DtwTierTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetForcedTier(); }
};

// Length pairs around every vector width (2/4 f64 lanes) plus long traces
// with many full vector chunks per anti-diagonal; both equal and unequal.
const size_t kLengthPairs[][2] = {{1, 1},   {1, 9},    {5, 5},    {13, 7},
                                  {29, 37}, {64, 64},  {97, 103}, {251, 257}};
const int kWindows[] = {-1, 0, 1, 5, 10};

TEST_F(DtwTierTest, DtwDistanceBitIdenticalAcrossTiers) {
  uint64_t seed = 1;
  for (const auto& lens : kLengthPairs) {
    for (int window : kWindows) {
      auto a = RandomTrace(lens[0], ++seed);
      auto b = RandomTrace(lens[1], ++seed);
      DtwOptions opts;
      opts.window = window;
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      auto want = DtwDistance(a, b, opts);
      ASSERT_TRUE(want.ok());
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        auto got = DtwDistance(a, b, opts);
        ASSERT_TRUE(got.ok()) << simd::TierName(t);
        // Exact per-cell math in the wavefront: bitwise equality, not tol.
        EXPECT_EQ(*got, *want)
            << simd::TierName(t) << " n=" << lens[0] << " m=" << lens[1]
            << " window=" << window;
      }
    }
  }
}

TEST_F(DtwTierTest, EarlyAbandonDecisionsMatchScalarOutput) {
  uint64_t seed = 101;
  for (const auto& lens : kLengthPairs) {
    auto a = RandomTrace(lens[0], ++seed);
    auto b = RandomTrace(lens[1], ++seed);
    DtwOptions opts;  // default window 10
    ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
    double exact = *DtwDistance(a, b, opts);
    // Below, at, and above the true distance. (At the exact bound the
    // rounded sqrt→square round trip makes the reject legitimately go either
    // way, so only cross-tier equality is asserted there.)
    const double bounds[] = {exact * 0.5, exact, exact * 1.5, 1e-6, kNoBound};
    for (double ub : bounds) {
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      auto want = DtwDistance(a, b, opts, ub);
      ASSERT_TRUE(want.ok());
      if (ub > exact * 1.2) {
        EXPECT_EQ(*want, exact);  // must not abandon above the bound
      }
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        auto got = DtwDistance(a, b, opts, ub);
        ASSERT_TRUE(got.ok()) << simd::TierName(t);
        EXPECT_EQ(*got, *want) << simd::TierName(t) << " ub=" << ub;
      }
    }
  }
}

TEST_F(DtwTierTest, EnvelopeBitIdenticalAcrossTiers) {
  uint64_t seed = 301;
  for (size_t n : {1, 2, 7, 33, 64, 257}) {
    for (int window : kWindows) {
      auto seq = RandomTrace(n, ++seed);
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      Envelope want = BuildEnvelope(seq, window);
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        Envelope got = BuildEnvelope(seq, window);
        EXPECT_EQ(got.lower, want.lower)
            << simd::TierName(t) << " n=" << n << " window=" << window;
        EXPECT_EQ(got.upper, want.upper)
            << simd::TierName(t) << " n=" << n << " window=" << window;
      }
    }
  }
}

TEST_F(DtwTierTest, LbKeoghStaysAdmissibleAndUlpCloseOnEveryTier) {
  uint64_t seed = 401;
  for (size_t n : {1, 5, 30, 64, 211}) {
    for (int window : {0, 3, 10}) {
      auto q = RandomTrace(n, ++seed);
      auto c = RandomTrace(n, ++seed);
      DtwOptions opts;
      opts.window = window;
      ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
      Envelope env = BuildEnvelope(c, window);
      double want = LbKeogh(q, env);
      double exact = *DtwDistance(q, c, opts);
      for (Tier t : HostTiers()) {
        ASSERT_TRUE(simd::ForceTier(t));
        double got = LbKeogh(q, env);
        // W-partial-sum reduction: a handful of ULP around the scalar sum.
        EXPECT_NEAR(got, want, 64.0 * std::numeric_limits<double>::epsilon() *
                                   (want + 1.0))
            << simd::TierName(t) << " n=" << n << " window=" << window;
        // Admissibility: the bound can never exceed the true DTW distance
        // (allowing the same ULP slack for the vector reduction).
        EXPECT_LE(got, exact + 64.0 * std::numeric_limits<double>::epsilon() *
                                   (exact + 1.0))
            << simd::TierName(t) << " n=" << n << " window=" << window;
      }
    }
  }
}

TEST_F(DtwTierTest, CascadeMatchesPlainDtwOnEveryTier) {
  const size_t kN = 40;
  const int kWindow = 5;
  DtwOptions opts;
  opts.window = kWindow;
  uint64_t seed = 701;
  for (Tier t : HostTiers()) {
    ASSERT_TRUE(simd::ForceTier(t));
    CascadingDtw cascade(opts);
    int64_t calls = 0;
    for (int rep = 0; rep < 24; ++rep) {
      auto q = RandomTrace(kN, ++seed);
      auto c = RandomTrace(kN, ++seed);
      Envelope q_env = BuildEnvelope(q, kWindow);
      Envelope c_env = BuildEnvelope(c, kWindow);
      const EnvelopeView q_view = q_env;
      double exact = *DtwDistance(q, c, opts);
      // Radii below and above the true distance: the cascade's accept /
      // reject must equal the plain-DTW comparison on every tier.
      for (double radius : {exact * 0.25, exact * 0.9, exact * 1.1}) {
        auto within = cascade.WithinRadius(q, c, c_env, radius, &q_view);
        ASSERT_TRUE(within.ok()) << simd::TierName(t);
        EXPECT_EQ(*within, exact <= radius)
            << simd::TierName(t) << " radius=" << radius
            << " exact=" << exact;
        ++calls;
      }
      // Distance with a generous bound must be the exact distance.
      auto d = cascade.Distance(q, c, c_env, exact * 2.0, &q_view);
      ASSERT_TRUE(d.ok()) << simd::TierName(t);
      EXPECT_EQ(*d, exact) << simd::TierName(t);
      ++calls;
    }
    // Every call is decided exactly once: by LB_Kim, LB_Keogh, or full DTW.
    const PruningStats& st = cascade.stats();
    EXPECT_EQ(st.kim_rejections + st.keogh_rejections + st.full_dtw, calls)
        << simd::TierName(t);
    EXPECT_GT(st.full_dtw, 0) << simd::TierName(t);
  }
}

}  // namespace
}  // namespace dbaugur::dtw
