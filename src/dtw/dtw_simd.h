// Declarations of the per-tier vector kernels behind the DTW cascade
// dispatch (see dtw.cpp): Keogh envelope construction, the LB_Keogh
// exceedance sum, and the full band DTW recurrence as an anti-diagonal
// wavefront.
//
// The scheme mirrors src/nn/simd_kernels.h: each tier namespace is one
// translation unit (src/dtw/simd_tier_<isa>.cpp) compiled with that ISA's
// -m flags, with the bodies shared via dtw_simd.inc against the
// `simd::best` wrapper types. Distinct per-tier namespaces keep the scheme
// ODR-safe (an AVX2-codegen'd helper can never be linker-merged into a
// binary that must run on an SSE2-only host).
//
// Numerics contract (relied on by dtw_simd_test):
//  * EnvelopeD and DtwBandD use only exact operations (subtract, multiply,
//    add of an exact chain, IEEE min/max, compare/blend) applied to the same
//    per-element expressions as the scalar code, so their results are
//    bit-identical to the scalar tier on every input without NaNs.
//  * LbKeoghSumSqD reduces with W partial sums (reassociation), so it may
//    differ from the scalar sum by a few ULP; LbKeogh stays an admissible
//    DTW lower bound to that tolerance.

#pragma once

#include <cstddef>

#if defined(DBAUGUR_SIMD_HAS_SSE2) || defined(DBAUGUR_SIMD_HAS_AVX2)

// clang-format off
#define DBAUGUR_DTW_DECLARE_TIER(ns)                                           \
  namespace ns {                                                               \
  /* Keogh envelope: lower/upper[i] = min/max of seq over [i-w, i+w]       */  \
  /* clamped to [0, n). Bit-identical to the scalar loop in dtw.cpp.       */  \
  void EnvelopeD(const double* seq, std::size_t n, std::size_t w,              \
                 double* lower, double* upper);                                \
  /* Sum of squared envelope exceedances of q against [lo, up] (the        */  \
  /* LB_Keogh sum before the sqrt). Requires lo[i] <= up[i]. W partials.   */  \
  double LbKeoghSumSqD(const double* q, const double* lo, const double* up,    \
                       std::size_t n);                                         \
  /* Band DTW as an anti-diagonal wavefront. Returns the squared DP value  */  \
  /* at the corner (n, m), or +inf with *abandoned set when two            */  \
  /* consecutive anti-diagonal minima exceeded ub2 (which proves the true  */  \
  /* result > ub2; pass ub2 = +inf to disable). `ws` is caller-owned       */  \
  /* scratch of at least 3 * (n + 3) doubles, prefilled with +inf.         */  \
  double DtwBandD(const double* a, std::size_t n, const double* b,             \
                  std::size_t m, std::size_t w, double ub2, double* ws,        \
                  bool* abandoned);                                            \
  }
// clang-format on

namespace dbaugur::dtw {

#if defined(DBAUGUR_SIMD_HAS_SSE2)
DBAUGUR_DTW_DECLARE_TIER(tier_sse2)
#endif
#if defined(DBAUGUR_SIMD_HAS_AVX2)
DBAUGUR_DTW_DECLARE_TIER(tier_avx2)
#endif

}  // namespace dbaugur::dtw

#undef DBAUGUR_DTW_DECLARE_TIER

#endif  // any tier compiled
