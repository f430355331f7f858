#ifndef DBAUGUR_COMMON_SIMD_H_
#define DBAUGUR_COMMON_SIMD_H_

// Portable SIMD layer: runtime-dispatched tiers + compile-time ISA wrappers.
//
// This header is the ONLY place in the tree where raw x86 intrinsics may
// appear (enforced by tools/lint.py rule `raw-simd-intrinsics`). Kernels are
// written once against the f64 `VecD` wrapper type and compiled into
// per-tier translation units (src/nn/simd_tier_*.cpp, src/dtw/simd_tier_*.cpp)
// with the matching -m<isa> flags; a function-pointer dispatch keyed on
// `ActiveTier()` picks the widest tier the host CPU, the build, and the
// `DBAUGUR_SIMD` environment override all allow.
//
// Two distinct things live here:
//
//  1. The runtime tier API (Tier, ActiveTier, ForceTier, ...). Declared here,
//     defined in simd.cpp, compiled with baseline flags — safe to call from
//     anywhere.
//
//  2. The ISA wrapper types. Each vector ISA gets its own namespace
//     (isa_sse2 / isa_avx2) so that per-tier TUs compiled with different -m
//     flags never share mangled symbol names: an inline helper emitted with
//     AVX2 codegen must not be ODR-merged into a binary that runs on an
//     SSE2-only host. `DBAUGUR_SIMD_ISA` names the widest namespace the
//     current TU's flags permit; tier TUs use it via the `best` alias below.
//     Non-x86 builds have neither: they compile no tier TU, and dispatch
//     stays on the scalar tier.
//
// Numerics contract (see README "SIMD kernels & runtime dispatch"):
//  - Min/Max follow the x86 semantics (second operand returned on NaN).
//  - Fmadd(a,b,c) is a*b+c, fused (single rounding) on FMA-capable tiers and
//    two-rounding on SSE2. Kernels that must stay bit-identical to the
//    scalar tier (DTW) use explicit `a*b + c` instead.
//  - Exp/Sigmoid/Tanh are Cephes-style polynomial approximations, within a
//    few ULP of libm; inputs outside ±709 saturate.

#include <cmath>
#include <cstddef>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#define DBAUGUR_SIMD_X86 1
#include <immintrin.h>
#else
#define DBAUGUR_SIMD_X86 0
#endif

namespace dbaugur::simd {

// Dispatch tiers, widest last. On x86-64 kSse2 is always reachable (SSE2 is
// baseline); kScalar runs the original untouched C++ kernels and is the
// bit-exactness reference.
enum class Tier : int { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

// Widest tier the host CPU *and* this build support (env override ignored).
Tier MaxSupportedTier();

// Tier the dispatch tables use right now: ForceTier() override if set, else
// min(MaxSupportedTier(), DBAUGUR_SIMD env cap). DBAUGUR_SIMD accepts
// off|scalar|sse2|avx2 (unknown values warn once and are ignored).
Tier ActiveTier();

// Test/bench hook: pin the dispatch tier. Returns false (and changes nothing)
// if `t` exceeds MaxSupportedTier(). ResetForcedTier() restores auto.
bool ForceTier(Tier t);
void ResetForcedTier();

// All tiers from kScalar up to MaxSupportedTier(), for test sweeps.
// Writes up to 3 entries into `out`, returns the count.
int SupportedTiers(Tier out[3]);

const char* TierName(Tier t);

// Host CPU feature summary (e.g. "sse2 sse4.2 avx avx2 fma"),
// for bench JSON provenance. Reflects the CPU, not the build or env cap.
std::string CpuFeatures();

// ---------------------------------------------------------------------------
// ISA selection for the current translation unit.
// ---------------------------------------------------------------------------

#if DBAUGUR_SIMD_X86 && defined(__AVX2__) && defined(__FMA__)
#define DBAUGUR_SIMD_ISA isa_avx2
#elif DBAUGUR_SIMD_X86 && defined(__SSE2__)
#define DBAUGUR_SIMD_ISA isa_sse2
#endif

// ---------------------------------------------------------------------------
// Generic transcendental bodies (shared across ISA namespaces; the Vec ops
// they call resolve by ADL into the namespace of V at instantiation).
// ---------------------------------------------------------------------------

namespace detail {

// Cephes exp(): range-reduce by ln2 with an extended-precision split, then a
// degree-2/3 rational approximation. ~1-2 ULP vs libm.
template <typename V>
inline V ExpImpl(V x) {
  x = Min(Max(x, V::Broadcast(-708.3964185322641)), V::Broadcast(709.436));
  const V n = RoundNearest(x * V::Broadcast(1.4426950408889634073599));
  x = x - n * V::Broadcast(6.93145751953125e-1);
  x = x - n * V::Broadcast(1.42860682030941723212e-6);
  const V xx = x * x;
  const V px =
      x * Fmadd(Fmadd(V::Broadcast(1.26177193074810590878e-4), xx,
                      V::Broadcast(3.02994407707441961300e-2)),
                xx, V::Broadcast(9.99999999999999999910e-1));
  const V qx =
      Fmadd(Fmadd(Fmadd(V::Broadcast(3.00198505138664455042e-6), xx,
                        V::Broadcast(2.52448340349684104192e-3)),
                  xx, V::Broadcast(2.27265548208155028766e-1)),
            xx, V::Broadcast(2.0));
  const V e = Fmadd(V::Broadcast(2.0), px / (qx - px), V::Broadcast(1.0));
  return e * Pow2(n);
}

// Numerically stable logistic, mirroring the two-branch scalar
// dbaugur::Sigmoid: both branches share e = exp(-|x|) in (0, 1].
template <typename V>
inline V SigmoidImpl(V x) {
  const V one = V::Broadcast(1.0);
  const V e = Exp(V::Zero() - Abs(x));
  const V denom = one + e;
  return Select(CmpGe(x, V::Zero()), one / denom, e / denom);
}

// tanh(x) = sign(x) * (1 - 2 / (exp(2|x|) + 1)). Exact at ±0, saturates to
// ±1 for large |x|; for |x| << 1 the subtraction cancels, leaving an absolute
// error of ~1 machine epsilon (documented in the kernel ULP policy).
template <typename V>
inline V TanhImpl(V x) {
  const V one = V::Broadcast(1.0);
  const V two = V::Broadcast(2.0);
  const V a = Min(two * Abs(x), V::Broadcast(708.0));
  const V e = Exp(a);
  const V t = one - two / (e + one);
  return Or(t, And(x, V::SignMask()));
}

}  // namespace detail

#if DBAUGUR_SIMD_X86 && defined(__SSE2__)

// ---------------------------------------------------------------------------
// SSE2: 2 × f64. Baseline on x86-64, no FMA (Fmadd rounds twice).
// ---------------------------------------------------------------------------

namespace isa_sse2 {

struct MaskD {
  __m128d m;
};

struct VecD {
  static constexpr std::size_t kWidth = 2;
  __m128d v;
  static VecD Load(const double* p) { return {_mm_loadu_pd(p)}; }
  // Lanes l = 0..kWidth-1 read p[-l] (descending memory order).
  static VecD LoadReversed(const double* p) {
    const __m128d raw = _mm_loadu_pd(p - 1);
    return {_mm_shuffle_pd(raw, raw, 0x1)};
  }
  static VecD Broadcast(double x) { return {_mm_set1_pd(x)}; }
  static VecD Zero() { return {_mm_setzero_pd()}; }
  static VecD SignMask() { return {_mm_set1_pd(-0.0)}; }
  void Store(double* p) const { _mm_storeu_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm_div_pd(a.v, b.v)}; }
};

inline VecD Min(VecD a, VecD b) { return {_mm_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm_max_pd(a.v, b.v)}; }
inline VecD Fmadd(VecD a, VecD b, VecD c) {
  return {_mm_add_pd(_mm_mul_pd(a.v, b.v), c.v)};
}
inline VecD And(VecD a, VecD b) { return {_mm_and_pd(a.v, b.v)}; }
inline VecD Or(VecD a, VecD b) { return {_mm_or_pd(a.v, b.v)}; }
inline VecD Abs(VecD a) {
  return {_mm_andnot_pd(_mm_set1_pd(-0.0), a.v)};
}
inline MaskD CmpGe(VecD a, VecD b) { return {_mm_cmpge_pd(a.v, b.v)}; }
inline MaskD CmpEq(VecD a, VecD b) { return {_mm_cmpeq_pd(a.v, b.v)}; }
inline VecD Select(MaskD m, VecD a, VecD b) {
  return {_mm_or_pd(_mm_and_pd(m.m, a.v), _mm_andnot_pd(m.m, b.v))};
}
inline double ReduceAdd(VecD a) {
  return _mm_cvtsd_f64(_mm_add_sd(a.v, _mm_unpackhi_pd(a.v, a.v)));
}
inline double ReduceMin(VecD a) {
  return _mm_cvtsd_f64(_mm_min_sd(a.v, _mm_unpackhi_pd(a.v, a.v)));
}
inline VecD RoundNearest(VecD a) {
  // cvtpd_epi32 rounds to nearest-even under the default MXCSR; exact for
  // the |n| <= 1100 exponents Exp produces.
  return {_mm_cvtepi32_pd(_mm_cvtpd_epi32(a.v))};
}
inline VecD Pow2(VecD n) {
  const __m128i i32 = _mm_cvtpd_epi32(n.v);
  const __m128i biased = _mm_add_epi32(i32, _mm_set1_epi32(1023));
  const __m128i i64 = _mm_unpacklo_epi32(biased, _mm_setzero_si128());
  return {_mm_castsi128_pd(_mm_slli_epi64(i64, 52))};
}

inline VecD Exp(VecD x) { return detail::ExpImpl(x); }
inline VecD Sigmoid(VecD x) { return detail::SigmoidImpl(x); }
inline VecD Tanh(VecD x) { return detail::TanhImpl(x); }

}  // namespace isa_sse2

#endif  // __SSE2__

#if DBAUGUR_SIMD_X86 && defined(__AVX2__) && defined(__FMA__)

// ---------------------------------------------------------------------------
// AVX2 + FMA: 4 × f64.
// ---------------------------------------------------------------------------

namespace isa_avx2 {

struct MaskD {
  __m256d m;
};

struct VecD {
  static constexpr std::size_t kWidth = 4;
  __m256d v;
  static VecD Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecD LoadReversed(const double* p) {
    const __m256d raw = _mm256_loadu_pd(p - 3);
    return {_mm256_permute4x64_pd(raw, _MM_SHUFFLE(0, 1, 2, 3))};
  }
  static VecD Broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD Zero() { return {_mm256_setzero_pd()}; }
  static VecD SignMask() { return {_mm256_set1_pd(-0.0)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
};

inline VecD Min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
inline VecD Max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }
inline VecD Fmadd(VecD a, VecD b, VecD c) {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}
inline VecD And(VecD a, VecD b) { return {_mm256_and_pd(a.v, b.v)}; }
inline VecD Or(VecD a, VecD b) { return {_mm256_or_pd(a.v, b.v)}; }
inline VecD Abs(VecD a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
inline MaskD CmpGe(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline MaskD CmpEq(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}
inline VecD Select(MaskD m, VecD a, VecD b) {
  return {_mm256_blendv_pd(b.v, a.v, m.m)};
}
inline double ReduceAdd(VecD a) {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}
inline double ReduceMin(VecD a) {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  const __m128d s = _mm_min_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_min_sd(s, _mm_unpackhi_pd(s, s)));
}
inline VecD RoundNearest(VecD a) {
  return {_mm256_round_pd(a.v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
}
inline VecD Pow2(VecD n) {
  const __m128i i32 = _mm256_cvtpd_epi32(n.v);
  const __m128i biased = _mm_add_epi32(i32, _mm_set1_epi32(1023));
  const __m256i i64 = _mm256_cvtepi32_epi64(biased);
  return {_mm256_castsi256_pd(_mm256_slli_epi64(i64, 52))};
}

inline VecD Exp(VecD x) { return detail::ExpImpl(x); }
inline VecD Sigmoid(VecD x) { return detail::SigmoidImpl(x); }
inline VecD Tanh(VecD x) { return detail::TanhImpl(x); }

}  // namespace isa_avx2

#endif  // __AVX2__ && __FMA__

#if defined(DBAUGUR_SIMD_ISA)
// Widest ISA namespace this TU's compile flags allow. Tier TUs define their
// kernels against `best::VecD`.
namespace best = DBAUGUR_SIMD_ISA;
#endif

}  // namespace dbaugur::simd

#endif  // DBAUGUR_COMMON_SIMD_H_
