#include "dtw/dtw.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/contracts.h"
#include "common/simd.h"
#include "dtw/dtw_simd.h"

namespace dbaugur::dtw {

namespace {

#if defined(DBAUGUR_SIMD_HAS_SSE2) || defined(DBAUGUR_SIMD_HAS_AVX2)
#define DBAUGUR_DTW_HAS_VECTOR_TIERS 1

// Dispatch table over the per-tier kernels (dtw_simd.h), mirroring
// ActiveKernels in nn/gemm.cpp. Null means "use the scalar code below",
// which is the untouched pre-SIMD implementation — the forced-scalar build
// therefore runs bit-identical to it by construction.
struct DtwKernels {
  void (*envelope)(const double*, size_t, size_t, double*, double*);
  LbKeoghSumKernel lb_keogh_sumsq;
  double (*dtw_band)(const double*, size_t, const double*, size_t, size_t,
                     double, double*, bool*);
};

const DtwKernels* ActiveDtwKernels() {
  switch (simd::ActiveTier()) {
#if defined(DBAUGUR_SIMD_HAS_AVX2)
    case simd::Tier::kAvx2: {
      static constexpr DtwKernels k = {&tier_avx2::EnvelopeD,
                                       &tier_avx2::LbKeoghSumSqD,
                                       &tier_avx2::DtwBandD};
      return &k;
    }
#endif
#if defined(DBAUGUR_SIMD_HAS_SSE2)
    case simd::Tier::kSse2: {
      static constexpr DtwKernels k = {&tier_sse2::EnvelopeD,
                                       &tier_sse2::LbKeoghSumSqD,
                                       &tier_sse2::DtwBandD};
      return &k;
    }
#endif
    default:
      return nullptr;
  }
}

#endif  // any vector tier compiled

// The scalar LB_Keogh sum — the reference loop the vector kernels
// reassociate.
double LbKeoghSumScalar(const double* q, const double* lo, const double* up,
                        size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (q[i] > up[i]) {
      double d = q[i] - up[i];
      s += d * d;
    } else if (q[i] < lo[i]) {
      double d = lo[i] - q[i];
      s += d * d;
    }
  }
  return s;
}

}  // namespace

StatusOr<double> DtwDistance(std::span<const double> a,
                             std::span<const double> b, const DtwOptions& opts,
                             double upper_bound) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("DTW: empty trace");
  }
  DBAUGUR_CHECK(upper_bound == kNoBound || upper_bound >= 0.0,
                "DTW: negative early-abandon bound ", upper_bound);
  size_t n = a.size(), m = b.size();
  // Widen the band so the corner (n-1, m-1) is reachable.
  size_t w;
  if (opts.window < 0) {
    w = std::max(n, m);
  } else {
    w = std::max<size_t>(static_cast<size_t>(opts.window),
                         n > m ? n - m : m - n);
  }
  DBAUGUR_DCHECK_GE(w, n > m ? n - m : m - n,
                    "DTW band narrower than the length gap");
  double ub2 = upper_bound == kNoBound ? kNoBound : upper_bound * upper_bound;
  constexpr double kInf = std::numeric_limits<double>::infinity();
#if defined(DBAUGUR_DTW_HAS_VECTOR_TIERS)
  if (const DtwKernels* kern = ActiveDtwKernels(); kern != nullptr) {
    // Anti-diagonal wavefront (dtw_simd.inc): bit-identical corner value,
    // and its two-consecutive-diagonal abandon rule fires only when the
    // result provably exceeds ub2 — so every return below matches the
    // scalar DP's output exactly.
    std::vector<double> ws(3 * (n + 3), kInf);
    bool abandoned = false;
    double sq = kern->dtw_band(a.data(), n, b.data(), m, w, ub2, ws.data(),
                               &abandoned);
    if (abandoned) return kInf;  // early abandon
    if (sq == kInf) {
      return Status::Internal("DTW: band excluded the alignment corner");
    }
    if (ub2 != kNoBound && sq > ub2) return kInf;
    return std::sqrt(sq);
  }
#endif
  // Two-row DP over the band.
  std::vector<double> prev(m + 1, kInf), cur(m + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    size_t lo = i > w ? i - w : 1;
    size_t hi = std::min(m, i + w);
    DBAUGUR_DCHECK_LE(lo, hi, "DTW band row ", i, " is empty");
    double row_min = kInf;
    for (size_t j = lo; j <= hi; ++j) {
      double d = a[i - 1] - b[j - 1];
      d *= d;
      double best = std::min({prev[j], cur[j - 1], prev[j - 1]});
      cur[j] = best == kInf ? kInf : d + best;
      row_min = std::min(row_min, cur[j]);
    }
    if (ub2 != kNoBound && row_min > ub2) return kInf;  // early abandon
    std::swap(prev, cur);
  }
  double result = prev[m];
  if (result == kInf) {
    return Status::Internal("DTW: band excluded the alignment corner");
  }
  if (ub2 != kNoBound && result > ub2) return kInf;
  return std::sqrt(result);
}

void BuildEnvelope(std::span<const double> seq, int window,
                   std::span<double> lower, std::span<double> upper) {
  size_t n = seq.size();
  DBAUGUR_DCHECK(lower.size() == n && upper.size() == n,
                 "BuildEnvelope: output spans must match the sequence length");
  size_t w = window < 0 ? n : static_cast<size_t>(window);
#if defined(DBAUGUR_DTW_HAS_VECTOR_TIERS)
  if (const DtwKernels* kern = ActiveDtwKernels();
      kern != nullptr && n != 0) {
    // Exact sliding min/max — bit-identical to the loop below on any tier.
    kern->envelope(seq.data(), n, w, lower.data(), upper.data());
    return;
  }
#endif
  for (size_t i = 0; i < n; ++i) {
    size_t lo = i > w ? i - w : 0;
    size_t hi = std::min(n - 1, i + w);
    double mn = seq[lo], mx = seq[lo];
    for (size_t j = lo + 1; j <= hi; ++j) {
      mn = std::min(mn, seq[j]);
      mx = std::max(mx, seq[j]);
    }
    lower[i] = mn;
    upper[i] = mx;
  }
}

Envelope BuildEnvelope(const std::vector<double>& seq, int window) {
  Envelope env;
  env.lower.resize(seq.size());
  env.upper.resize(seq.size());
  BuildEnvelope(seq, window, env.lower, env.upper);
  return env;
}

LbKeoghSumKernel ActiveLbKeoghSum() {
#if defined(DBAUGUR_DTW_HAS_VECTOR_TIERS)
  if (const DtwKernels* kern = ActiveDtwKernels(); kern != nullptr) {
    // W-partial-sum reduction: a few ULP from the scalar sum (admissibility
    // is preserved to that tolerance; see dtw_simd.h).
    return kern->lb_keogh_sumsq;
  }
#endif
  return &LbKeoghSumScalar;
}

double LbKeoghSum(std::span<const double> query, const EnvelopeView& cand_env) {
  DBAUGUR_DCHECK_EQ(cand_env.lower.size(), cand_env.upper.size(),
                    "LbKeogh: malformed envelope");
  if (query.size() != cand_env.lower.size()) return 0.0;
  return ActiveLbKeoghSum()(query.data(), cand_env.lower.data(),
                            cand_env.upper.data(), query.size());
}

double LbKeogh(std::span<const double> query, const EnvelopeView& cand_env) {
  return std::sqrt(LbKeoghSum(query, cand_env));
}

double LbKeoghSymmetric(const std::vector<double>& a, const Envelope& env_a,
                        const std::vector<double>& b, const Envelope& env_b) {
  return std::max(LbKeogh(a, env_b), LbKeogh(b, env_a));
}

double LbKim(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) return 0.0;
  // Any warping path must match first-with-first and last-with-last.
  double df = std::fabs(a.front() - b.front());
  double dl = std::fabs(a.back() - b.back());
  if (a.size() == 1 && b.size() == 1) {
    // The path is the single cell (0,0): df and dl are the same cost, so
    // summing them would double-count. (When only one side has length 1 the
    // first and last cells are still distinct path cells — b.front() and
    // b.back() both align against a[0] — so the sqrt form below remains
    // admissible.)
    return std::max(df, dl);
  }
  return std::sqrt(df * df + dl * dl);
}

double SquaredRadiusThreshold(double radius) {
  if (radius < 0.0) return -kNoBound;
  // ρ² rounds to within a few ULP of the answer (or overflows to +∞ when
  // the answer is DBL_MAX), so a few steps reach it. NaN skips both loops,
  // and ρ = +∞ stops at once.
  double t = radius * radius;
  while (std::sqrt(t) > radius) t = std::nextafter(t, 0.0);
  while (t < kNoBound) {
    const double up = std::nextafter(t, kNoBound);
    if (!(std::sqrt(up) <= radius)) break;
    t = up;
  }
  return t;
}

StatusOr<bool> CascadingDtw::WithinRadius(std::span<const double> query,
                                          std::span<const double> candidate,
                                          const EnvelopeView& cand_env,
                                          double radius,
                                          const EnvelopeView* query_env) {
  auto d = Distance(query, candidate, cand_env, radius, query_env);
  if (!d.ok()) return d.status();
  return *d <= radius;
}

StatusOr<double> CascadingDtw::Distance(std::span<const double> query,
                                        std::span<const double> candidate,
                                        const EnvelopeView& cand_env,
                                        double upper_bound,
                                        const EnvelopeView* query_env) {
  if (upper_bound != kNoBound) {
    if (LbKim(query, candidate) > upper_bound) {
      ++stats_.kim_rejections;
      return std::numeric_limits<double>::infinity();
    }
    // LB_Keogh decided on its sums against the threshold, which takes the
    // decision its square root would against the bound.
    if (upper_bound != threshold_bound_) {
      threshold_bound_ = upper_bound;
      threshold_ = SquaredRadiusThreshold(upper_bound);
    }
    const double first = LbKeoghSum(query, cand_env);
    const bool rejected =
        query_env == nullptr
            ? first > threshold_
            : KeoghSumsReject(first, threshold_, [&] {
                return LbKeoghSum(candidate, *query_env);
              });
    if (rejected) {
      ++stats_.keogh_rejections;
      return std::numeric_limits<double>::infinity();
    }
  }
  ++stats_.full_dtw;
  return DtwDistance(query, candidate, opts_, upper_bound);
}

}  // namespace dbaugur::dtw
