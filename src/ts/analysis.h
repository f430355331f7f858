// Trace analysis utilities: autocorrelation and dominant-period detection.
// Used to characterize workload patterns (Fig. 2) and to pick sensible
// windows/horizons for unseen traces.

#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace dbaugur::ts {

/// Sample autocorrelation of `v` at `lag` (0 when undefined or lag >= size).
double Autocorrelation(const std::vector<double>& v, size_t lag);

/// Autocorrelation for every lag in [1, max_lag].
std::vector<double> AutocorrelationFunction(const std::vector<double>& v,
                                            size_t max_lag);

/// Result of period detection.
struct PeriodEstimate {
  size_t period = 0;        ///< Lag of the strongest autocorrelation peak.
  double strength = 0.0;    ///< Autocorrelation at that lag.
};

/// Finds the dominant period as the strongest *local* autocorrelation peak
/// in [min_lag, max_lag]. Returns NotFound when no local peak exceeds
/// `min_strength` (e.g. white noise or pure trend).
StatusOr<PeriodEstimate> DetectPeriod(const std::vector<double>& v,
                                      size_t min_lag, size_t max_lag,
                                      double min_strength = 0.2);

}  // namespace dbaugur::ts
