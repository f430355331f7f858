// Declarations of the per-tier vector kernels behind the GEMM and LSTM-gate
// dispatch tables (see gemm.cpp / lstm_kernels.cpp).
//
// Each tier namespace (tier_sse2, tier_avx2) is one translation unit
// (src/nn/simd_tier_<isa>.cpp) compiled with that ISA's -m flags; the bodies
// are shared via simd_kernels.inc against the `simd::best` wrapper types.
// Keeping the tiers in distinct namespaces (instead of one inline helper
// compiled twice) is what makes the scheme ODR-safe: an AVX2-codegen'd helper
// can never be linker-merged into a binary that must run on an SSE2-only
// host.
//
// The D suffix marks f64 lanes. All buffers are fully packed row-major
// (leading dimension == column count).

#pragma once

#include <cstddef>

#if defined(DBAUGUR_SIMD_HAS_SSE2) || defined(DBAUGUR_SIMD_HAS_AVX2)

// clang-format off
#define DBAUGUR_NN_DECLARE_TIER(ns)                                            \
  namespace ns {                                                               \
  /* Rows [r0, r1) of c (m x n) = [c +] a (m x k) * b (k x n). */              \
  void GemmNNRowsD(std::size_t r0, std::size_t r1, std::size_t k,              \
                   std::size_t n, const double* a, const double* b, double* c, \
                   bool accumulate);                                           \
  /* Rows [k0, k1) of c (k x n) = [c +] a^T * b; a is (m x k), b (m x n). */   \
  void GemmTNRowsD(std::size_t k0, std::size_t k1, std::size_t m,              \
                   std::size_t k, std::size_t n, const double* a,              \
                   const double* b, double* c, bool accumulate);               \
  /* Rows [r0, r1) of c (m x p) = [c +] a (m x k) * b^T; b is (p x k). */      \
  void GemmNTRowsD(std::size_t r0, std::size_t r1, std::size_t k,              \
                   std::size_t p, const double* a, const double* b, double* c, \
                   bool accumulate);                                           \
  /* Fused LSTM gate forward: z is [batch, 4*hidden] in [i|f|g|o] layout,      \
     all other buffers [batch, hidden]. */                                     \
  void LstmGatesForwardD(std::size_t batch, std::size_t hidden,                \
                         const double* z, const double* c_prev, double* ig,    \
                         double* fg, double* gg, double* og, double* c,        \
                         double* tanh_c, double* h);                           \
  /* Fused LSTM gate backward: writes dz [batch, 4*hidden] and dc_prev. */     \
  void LstmGatesBackwardD(std::size_t batch, std::size_t hidden,               \
                          const double* dh, const double* dc_next,             \
                          const double* tanh_c, const double* ig,              \
                          const double* fg, const double* gg, const double* og,\
                          const double* c_prev, double* dz, double* dc_prev);  \
  }
// clang-format on

namespace dbaugur::nn {

#if defined(DBAUGUR_SIMD_HAS_SSE2)
DBAUGUR_NN_DECLARE_TIER(tier_sse2)
#endif
#if defined(DBAUGUR_SIMD_HAS_AVX2)
DBAUGUR_NN_DECLARE_TIER(tier_avx2)
#endif

}  // namespace dbaugur::nn

#undef DBAUGUR_NN_DECLARE_TIER

#endif  // any tier compiled
