// Synthetic workload generators standing in for the paper's proprietary
// datasets (see DESIGN.md §3). Each generator reproduces the published
// *shape* properties that the evaluation depends on:
//   * BusTracker: per-minute query counts, rough one-day cycle, weekday
//     modulation, Poisson noise, sudden crests and troughs (Fig. 2a);
//   * Alibaba cluster disk utilization: long and less-obvious period, good
//     local linearity, many bursts from complex queries (Fig. 2b, §VI-B);
//   * Periodic / Complex: the two synthetic workloads of the migration case
//     study (Fig. 9) — clean cycles vs trend + white noise + seasonal +
//     holiday + weekday factors.
// All generators are deterministic in their seed.

#pragma once

#include <cstdint>

#include "ts/series.h"

namespace dbaugur::workloads {

/// BusTracker-like query arrival counts.
struct BusTrackerOptions {
  size_t days = 28;
  int64_t interval_seconds = 60;   ///< Real trace records per-minute counts.
  uint64_t seed = 1;
};
ts::Series GenerateBusTracker(const BusTrackerOptions& opts);

/// Alibaba-cluster-like disk utilization ratios in [0, 1].
struct AlibabaOptions {
  size_t days = 6;
  int64_t interval_seconds = 300;
  uint64_t seed = 2;
};
ts::Series GenerateAlibabaDisk(const AlibabaOptions& opts);

/// Clean periodic workload (Fig. 9a).
struct PeriodicOptions {
  size_t periods = 30;
  size_t steps_per_period = 48;
  double noise_sd = 2.0;
  uint64_t seed = 3;
};
ts::Series GeneratePeriodic(const PeriodicOptions& opts);

/// Complex workload: linear trend + white noise + seasonal + holiday +
/// weekday factors (Fig. 9b).
struct ComplexOptions {
  size_t days = 30;
  size_t steps_per_day = 48;
  double holiday_prob = 0.07;      ///< Chance a day is a holiday.
  double noise_sd = 6.0;
  uint64_t seed = 4;
};
ts::Series GenerateComplex(const ComplexOptions& opts);

/// A family of traces that share one latent pattern but differ by time
/// shift, amplitude scaling, and noise — the regime where DTW clustering
/// must beat lock-step distances (paper §IV-B). Used by tests and the
/// clustering ablation bench.
struct WarpedFamilyOptions {
  size_t members = 10;
  double max_shift = 6.0;      ///< Uniform time shift in steps.
  double amp_low = 0.8;
  double amp_high = 1.2;
  double noise_sd = 0.05;
  double phase = 0.0;          ///< Distinguishes different families.
  uint64_t seed = 5;
};
std::vector<ts::Series> GenerateWarpedFamily(const WarpedFamilyOptions& opts);

}  // namespace dbaugur::workloads
