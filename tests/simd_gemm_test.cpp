// Per-tier tests for the SIMD dispatch layer and the vectorized nn kernels.
//
// nn_kernel_equivalence_test pins the scalar tier bit-for-bit against the
// pre-PR naive kernels; this file covers the vector tiers, which are allowed
// to differ only within the documented numerics contract (nn/gemm.h,
// nn/simd_kernels.h):
//  * GemmNN/TN differ from scalar only by FMA contraction; GemmNT reduces
//    with W partial sums. Both are within an error bound that scales with
//    the reduction length and Σ|a||b| — checked against an f64 oracle here.
//  * LSTM gate backward uses plain mul/add only: bit-identical across every
//    tier. Forward differs only through the polynomial Exp/Sigmoid/Tanh
//    (a few ULP of libm).
// Every check sweeps all dispatch tiers reachable on the host, at odd/prime
// shapes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "nn/gemm.h"
#include "nn/lstm_kernels.h"

namespace dbaugur::nn {
namespace {

using simd::Tier;

std::vector<Tier> HostTiers() {
  Tier out[3];
  int count = simd::SupportedTiers(out);
  return std::vector<Tier>(out, out + count);
}

class TierSweepTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetForcedTier(); }
};

// ---------------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------------

TEST_F(TierSweepTest, SupportedTiersStartAtScalarAndAscend) {
  std::vector<Tier> tiers = HostTiers();
  ASSERT_GE(tiers.size(), 1u);
  EXPECT_EQ(tiers.front(), Tier::kScalar);
  for (size_t i = 1; i < tiers.size(); ++i) {
    EXPECT_LT(static_cast<int>(tiers[i - 1]), static_cast<int>(tiers[i]));
  }
  EXPECT_EQ(tiers.back(), simd::MaxSupportedTier());
}

TEST_F(TierSweepTest, ForceTierPinsEverySupportedTier) {
  for (Tier t : HostTiers()) {
    ASSERT_TRUE(simd::ForceTier(t)) << simd::TierName(t);
    EXPECT_EQ(simd::ActiveTier(), t) << simd::TierName(t);
  }
  simd::ResetForcedTier();
  EXPECT_LE(static_cast<int>(simd::ActiveTier()),
            static_cast<int>(simd::MaxSupportedTier()));
}

TEST_F(TierSweepTest, ForceTierRejectsUnsupportedTiers) {
  const int max = static_cast<int>(simd::MaxSupportedTier());
  Tier before = simd::ActiveTier();
  for (int t = max + 1; t <= static_cast<int>(Tier::kAvx2); ++t) {
    EXPECT_FALSE(simd::ForceTier(static_cast<Tier>(t)));
    EXPECT_EQ(simd::ActiveTier(), before) << "rejected force must not stick";
  }
}

TEST_F(TierSweepTest, TierNamesAreDistinct) {
  std::vector<std::string> names;
  for (int t = 0; t <= static_cast<int>(Tier::kAvx2); ++t) {
    names.push_back(simd::TierName(static_cast<Tier>(t)));
    EXPECT_FALSE(names.back().empty());
  }
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

#if defined(DBAUGUR_SIMD_HAS_AVX2)
// AVX2+FMA is the widest tier: a host that has it runs it, however wide its
// vectors go. A wider tier comes back only with an end-to-end measurement.
TEST_F(TierSweepTest, Avx2IsTheWidestTier) {
  const std::string features = " " + simd::CpuFeatures() + " ";
  const bool avx2_fma = features.find(" avx2 ") != std::string::npos &&
                        features.find(" fma ") != std::string::npos;
  if (avx2_fma) {
    EXPECT_EQ(simd::MaxSupportedTier(), Tier::kAvx2) << features;
  } else {
    EXPECT_LT(static_cast<int>(simd::MaxSupportedTier()),
              static_cast<int>(Tier::kAvx2))
        << features;
  }
}
#endif

TEST_F(TierSweepTest, CpuFeaturesMentionsEverySupportedVectorTier) {
  std::string features = simd::CpuFeatures();
  for (Tier t : HostTiers()) {
    if (t == Tier::kScalar) continue;
    EXPECT_NE(features.find(simd::TierName(t)), std::string::npos)
        << "'" << features << "' should mention " << simd::TierName(t);
  }
}

// ---------------------------------------------------------------------------
// GEMM vs the f64 oracle, every tier.
// ---------------------------------------------------------------------------

struct Shape {
  size_t m, k, n;
};

// Odd/prime shapes: below, at, and straddling every vector width in play
// (2/4 f64 lanes), plus one multi-panel size.
const Shape kShapes[] = {
    {1, 1, 1}, {1, 7, 3},   {7, 1, 13},   {3, 17, 5},
    {5, 3, 2}, {13, 7, 31}, {97, 89, 101},
};

std::vector<double> RandomVec(size_t len, Rng* rng) {
  std::vector<double> v(len);
  for (auto& x : v) x = rng->Uniform(-2.0, 2.0);
  return v;
}

// Error budget for one output element: both the scalar chain and any
// contracted/W-partial vector chain are within k·eps·Σ|a||b| of the exact
// sum, so their difference is within twice that (plus slack for the
// accumulate input).
double GemmTolerance(double abs_sum, size_t k) {
  return 4.0 * std::numeric_limits<double>::epsilon() *
             (static_cast<double>(k) + 2.0) * abs_sum +
         1e-300;
}

enum class Variant { kNN, kTN, kNT };

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kNN:
      return "GemmNN";
    case Variant::kTN:
      return "GemmTN";
    default:
      return "GemmNT";
  }
}

// f64 oracle with per-element |a||b| sums for the tolerance. Operand layout
// matches the variant: NN a(m x k) b(k x n); TN a(k x m)^T... (a is m x k
// interpreted transposed exactly as the kernels do); NT b(n x k).
void OracleAndScale(Variant v, size_t m, size_t k, size_t n,
                    const std::vector<double>& a, const std::vector<double>& b,
                    std::vector<double>* want, std::vector<double>* scale) {
  want->assign(m * n, 0.0);
  scale->assign(m * n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double s = 0.0, abs_s = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        double av, bv;
        if (v == Variant::kNN) {
          av = a[i * k + kk];
          bv = b[kk * n + j];
        } else if (v == Variant::kTN) {
          // c = a^T * b with a (red x outM), b (red x outN): the test's
          // (m, k, n) map onto GemmTN's (shared rows, output rows, cols)
          // as (k, m, n) — see the call site below.
          av = a[kk * m + i];
          bv = b[kk * n + j];
        } else {
          av = a[i * k + kk];
          bv = b[j * k + kk];
        }
        s += av * bv;
        abs_s += std::fabs(av) * std::fabs(bv);
      }
      (*want)[i * n + j] = s;
      (*scale)[i * n + j] = abs_s;
    }
  }
}

void CheckGemmVariantOnActiveTier(Variant v, const Shape& s, uint64_t seed) {
  Rng rng(seed);
  const size_t asize = s.m * s.k;  // NN/NT row-major a (m x k)
  const size_t a_tn = s.k * s.m;   // TN a (k x m): reduction-major
  std::vector<double> a = RandomVec(v == Variant::kTN ? a_tn : asize, &rng);
  std::vector<double> b =
      RandomVec(v == Variant::kNT ? s.n * s.k : s.k * s.n, &rng);
  std::vector<double> want, scale;
  OracleAndScale(v, s.m, s.k, s.n, a, b, &want, &scale);
  for (bool accumulate : {false, true}) {
    std::vector<double> c(s.m * s.n, 0.0);
    if (accumulate) {
      for (size_t i = 0; i < c.size(); ++i) c[i] = rng.Uniform(-1.0, 1.0);
    }
    std::vector<double> base = c;
    if (v == Variant::kNN) {
      GemmNN(s.m, s.k, s.n, a.data(), b.data(), c.data(), accumulate);
    } else if (v == Variant::kTN) {
      // GemmTN's (m, k, n) are (shared rows, output rows, output cols).
      GemmTN(s.k, s.m, s.n, a.data(), b.data(), c.data(), accumulate);
    } else {
      GemmNT(s.m, s.k, s.n, a.data(), b.data(), c.data(), accumulate);
    }
    for (size_t i = 0; i < c.size(); ++i) {
      const double expect = want[i] + (accumulate ? base[i] : 0.0);
      const double tol =
          GemmTolerance(scale[i] + std::fabs(base[i]), s.k) +
          2.0 * std::numeric_limits<double>::epsilon() * std::fabs(expect);
      ASSERT_NEAR(c[i], expect, tol)
          << VariantName(v) << (accumulate ? "+acc" : "") << " tier "
          << simd::TierName(simd::ActiveTier()) << " shape " << s.m << "x"
          << s.k << "x" << s.n << " flat " << i;
    }
  }
}

TEST_F(TierSweepTest, GemmMatchesOracleOnEveryTierAndWidth) {
  uint64_t seed = 16;
  for (Tier t : HostTiers()) {
    ASSERT_TRUE(simd::ForceTier(t));
    for (const Shape& s : kShapes) {
      for (Variant v : {Variant::kNN, Variant::kTN, Variant::kNT}) {
        CheckGemmVariantOnActiveTier(v, s, seed += 2);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused LSTM gate kernels across tiers.
// ---------------------------------------------------------------------------

struct GateBuffers {
  size_t batch, hidden;
  std::vector<double> z, c_prev, ig, fg, gg, og, c, tanh_c, h;

  GateBuffers(size_t b, size_t hdim, uint64_t seed) : batch(b), hidden(hdim) {
    Rng rng(seed);
    z = RandomVec(b * 4 * hdim, &rng);
    c_prev = RandomVec(b * hdim, &rng);
    const size_t n = b * hdim;
    ig.assign(n, 0.0);
    fg.assign(n, 0.0);
    gg.assign(n, 0.0);
    og.assign(n, 0.0);
    c.assign(n, 0.0);
    tanh_c.assign(n, 0.0);
    h.assign(n, 0.0);
  }

  void RunForward() {
    LstmGatesForward(batch, hidden, z.data(), c_prev.data(), ig.data(),
                     fg.data(), gg.data(), og.data(), c.data(), tanh_c.data(),
                     h.data());
  }
};

// Prime batch/hidden pairs so every tier has a vector body and a tail.
const size_t kGateShapes[][2] = {{1, 1}, {3, 5}, {7, 16}, {5, 23}, {2, 61}};

TEST_F(TierSweepTest, LstmForwardMatchesScalarTierWithinUlps) {
  for (const auto& shape : kGateShapes) {
    ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
    GateBuffers ref(shape[0], shape[1], 91);
    ref.RunForward();
    for (Tier t : HostTiers()) {
      ASSERT_TRUE(simd::ForceTier(t));
      GateBuffers got(shape[0], shape[1], 91);
      got.RunForward();
      for (size_t i = 0; i < got.h.size(); ++i) {
        // Gates/tanh live in [-1, 1]; c is a short plain-mul/add chain of
        // them. The polynomial Exp is within a few ULP of libm, so an
        // absolute tolerance near epsilon holds everywhere.
        EXPECT_NEAR(got.c[i], ref.c[i], 1e-12) << simd::TierName(t);
        EXPECT_NEAR(got.h[i], ref.h[i], 1e-12) << simd::TierName(t);
      }
    }
  }
}

TEST_F(TierSweepTest, LstmBackwardBitIdenticalAcrossTiers) {
  for (const auto& shape : kGateShapes) {
    const size_t batch = shape[0], hidden = shape[1];
    const size_t n = batch * hidden;
    // One forward pass (on the scalar tier) builds self-consistent gate
    // activations; the backward inputs are then fixed across tiers.
    ASSERT_TRUE(simd::ForceTier(Tier::kScalar));
    GateBuffers fwd(batch, hidden, 171);
    fwd.RunForward();
    Rng rng(173);
    std::vector<double> dh = RandomVec(n, &rng);
    std::vector<double> dc = RandomVec(n, &rng);

    std::vector<double> want_dz, want_dcp;
    bool first = true;
    for (Tier t : HostTiers()) {
      ASSERT_TRUE(simd::ForceTier(t));
      std::vector<double> dz(batch * 4 * hidden, 0.0), dcp(n, 0.0);
      LstmGatesBackward(batch, hidden, dh.data(), dc.data(),
                        fwd.tanh_c.data(), fwd.ig.data(), fwd.fg.data(),
                        fwd.gg.data(), fwd.og.data(), fwd.c_prev.data(),
                        dz.data(), dcp.data());
      if (first) {
        want_dz = dz;
        want_dcp = dcp;
        first = false;
        continue;
      }
      // Plain mul/add only, compiled with -ffp-contract=off: exact match.
      EXPECT_EQ(dz, want_dz) << simd::TierName(t);
      EXPECT_EQ(dcp, want_dcp) << simd::TierName(t);
    }
  }
}

}  // namespace
}  // namespace dbaugur::nn
