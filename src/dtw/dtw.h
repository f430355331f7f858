// Dynamic Time Warping (paper §IV-B, Algorithm 1) with a Sakoe–Chiba window,
// early abandoning, and the LB_Kim / LB_Keogh lower-bound cascade
// (Ratanamahatana & Keogh 2004) that reduces the common case to linear time.
//
// DTW aligns two traces by warping the time axis, so similar workloads whose
// patterns are shifted or locally stretched (the paper's planetarium example)
// still measure as close — unlike lock-step Euclidean/cosine distance.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/status.h"

namespace dbaugur::dtw {

/// Sentinel for "no early-abandon threshold".
inline constexpr double kNoBound = std::numeric_limits<double>::infinity();

/// Options for DTW computation.
struct DtwOptions {
  /// Sakoe–Chiba band half-width in steps. Negative => unconstrained.
  /// For traces of different lengths the effective band is widened to at
  /// least |n - m| so an alignment always exists.
  int window = 10;
};

/// Exact windowed DTW distance between two traces (Algorithm 1 generalized to
/// unequal lengths). `upper_bound` enables early abandoning: if the distance
/// provably exceeds it, returns +infinity immediately.
/// Returns InvalidArgument for empty inputs.
StatusOr<double> DtwDistance(std::span<const double> a,
                             std::span<const double> b, const DtwOptions& opts,
                             double upper_bound = kNoBound);

/// Non-owning view of a Keogh envelope, whether held by an Envelope or by
/// other storage (Descender keeps every trace's envelope in one flat arena).
struct EnvelopeView {
  std::span<const double> lower;
  std::span<const double> upper;
};

/// Per-position min/max of a trace over a sliding band of half-width
/// `window` — the Keogh envelope used by LB_Keogh. Converts to its view.
struct Envelope {
  std::vector<double> lower;
  std::vector<double> upper;

  operator EnvelopeView() const { return {lower, upper}; }
};

/// Builds the Keogh envelope of `seq` for band half-width `window`.
Envelope BuildEnvelope(const std::vector<double>& seq, int window);
/// Same, written into caller storage; `lower` and `upper` hold seq.size()
/// elements each.
void BuildEnvelope(std::span<const double> seq, int window,
                   std::span<double> lower, std::span<double> upper);

/// An LB_Keogh sum kernel: Σᵢ eᵢ² over n positions, where eᵢ is how far q[i]
/// lies above up[i] or below lo[i] (0 inside the envelope). Requires
/// lo[i] <= up[i]. The vector tiers reduce over W partial sums, so their
/// sums may differ from the scalar loop's in the last bits (dtw_simd.h).
using LbKeoghSumKernel = double (*)(const double* q, const double* lo,
                                    const double* up, size_t n);

/// The active SIMD tier's LB_Keogh sum kernel (the scalar loop when dispatch
/// is off). Callers that evaluate many pairs resolve it once; LbKeoghSum and
/// LbKeogh resolve it per call.
LbKeoghSumKernel ActiveLbKeoghSum();

/// LB_Keogh before its square root: the active kernel's sum of squared
/// exceedances of `query` outside the candidate's envelope, or 0 when the
/// lengths differ.
double LbKeoghSum(std::span<const double> query, const EnvelopeView& cand_env);

/// LB_Keogh lower bound of DTW(query, candidate) given the candidate's
/// envelope: √LbKeoghSum, so a decision taken on the sum against
/// SquaredRadiusThreshold(ρ) is the decision taken on this bound against ρ.
/// Equal lengths required; returns 0 — a trivially valid bound — when
/// lengths differ.
double LbKeogh(std::span<const double> query, const EnvelopeView& cand_env);

/// The largest double t with √t ≤ ρ (−∞ when ρ < 0, +∞ when ρ = +∞, NaN when
/// ρ is NaN). √ is correctly rounded and monotone, so for every double s —
/// ±∞ and NaN included — `s > t` holds exactly when `std::sqrt(s) > ρ`. A
/// bound of the form √s can therefore be tested against ρ on s, with no
/// square root.
double SquaredRadiusThreshold(double radius);

/// The two-sided LB_Keogh tier's decision taken on sums: true iff the
/// cascade's max(LbKeogh(q, env_c), LbKeogh(c, env_q)) > ρ, given
/// `first` = LbKeoghSum(q, env_c), `second()` = LbKeoghSum(c, env_q) and
/// `threshold` = SquaredRadiusThreshold(ρ). `second` runs only when `first`
/// does not decide: when it exceeds the threshold the max does too, and when
/// it is NaN the max is NaN (std::max returns its first argument), which
/// rejects nothing. A NaN second sum leaves the max at √first.
template <typename SecondSum>
inline bool KeoghSumsReject(double first, double threshold,
                            SecondSum&& second) {
  if (first > threshold) return true;
  if (std::isnan(first)) return false;
  return second() > threshold;
}

/// Two-sided LB_Keogh: the max of both directions (a against b's envelope
/// and b against a's). Each direction is an admissible lower bound of the
/// symmetric DTW distance, so their max is a tighter admissible bound.
double LbKeoghSymmetric(const std::vector<double>& a, const Envelope& env_a,
                        const std::vector<double>& b, const Envelope& env_b);

/// LB_Kim-style constant-time lower bound from the first and last points.
double LbKim(std::span<const double> a, std::span<const double> b);

/// Per-tier telemetry for the neighbor-search cascade: how many candidates
/// each lower-bound tier rejected and how many paid for a full DTW. Every
/// candidate pair is decided at exactly one tier. Threaded from CascadingDtw
/// and Descender's batch sweep through core::DBAugurSystem into the
/// efficiency benches. (BallTree counts its own distance_evals().)
struct PruningStats {
  /// Candidates rejected by LB_Kim. Descender's batch sweep counts here the
  /// pairs its endpoint grid never hands to the cascade: exactly the pairs
  /// LB_Kim rejects.
  int64_t kim_rejections = 0;
  int64_t keogh_rejections = 0;  ///< Candidates rejected by LB_Keogh.
  int64_t full_dtw = 0;          ///< Full (possibly early-abandoned) DTW runs.

  PruningStats& operator+=(const PruningStats& o) {
    kim_rejections += o.kim_rejections;
    keogh_rejections += o.keogh_rejections;
    full_dtw += o.full_dtw;
    return *this;
  }
};

/// Cascading evaluator: LB_Kim → LB_Keogh → early-abandoning DTW. Used by
/// the clustering range queries; counts how often each tier decided, which
/// the ablation bench reports.
class CascadingDtw {
 public:
  explicit CascadingDtw(const DtwOptions& opts) : opts_(opts) {}

  /// True iff DTW(query, candidate) <= radius. `cand_env` must be the
  /// candidate's envelope for the same window. When `query_env` is supplied
  /// the Keogh tier uses the symmetric two-sided bound, which prunes
  /// strictly more candidates without changing any accept/reject decision.
  StatusOr<bool> WithinRadius(std::span<const double> query,
                              std::span<const double> candidate,
                              const EnvelopeView& cand_env, double radius,
                              const EnvelopeView* query_env = nullptr);

  /// Exact distance with the cascade used as a fast reject against
  /// `upper_bound`; returns +infinity if the bound proves distance > bound.
  StatusOr<double> Distance(std::span<const double> query,
                            std::span<const double> candidate,
                            const EnvelopeView& cand_env, double upper_bound,
                            const EnvelopeView* query_env = nullptr);

  const PruningStats& stats() const { return stats_; }

 private:
  DtwOptions opts_;
  PruningStats stats_;
  // SquaredRadiusThreshold of the last bound Distance saw (NaN: none yet).
  double threshold_bound_ = std::numeric_limits<double>::quiet_NaN();
  double threshold_ = 0.0;
};

}  // namespace dbaugur::dtw
