#include "ts/analysis.h"

#include <algorithm>

#include "common/math_utils.h"

namespace dbaugur::ts {

double Autocorrelation(const std::vector<double>& v, size_t lag) {
  if (lag == 0) return 1.0;
  if (lag >= v.size() || v.size() < 2) return 0.0;
  double mean = Mean(v);
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i + lag < v.size(); ++i) {
    num += (v[i] - mean) * (v[i + lag] - mean);
  }
  for (double x : v) den += (x - mean) * (x - mean);
  if (den <= 0.0) return 0.0;
  return num / den;
}

std::vector<double> AutocorrelationFunction(const std::vector<double>& v,
                                            size_t max_lag) {
  max_lag = std::min(max_lag, v.empty() ? 0 : v.size() - 1);
  std::vector<double> out(max_lag, 0.0);
  if (v.size() < 2) return out;
  // One pass over the mean/denominator, then per-lag numerators.
  double mean = Mean(v);
  double den = 0.0;
  for (double x : v) den += (x - mean) * (x - mean);
  if (den <= 0.0) return out;
  for (size_t lag = 1; lag <= max_lag; ++lag) {
    double num = 0.0;
    for (size_t i = 0; i + lag < v.size(); ++i) {
      num += (v[i] - mean) * (v[i + lag] - mean);
    }
    out[lag - 1] = num / den;
  }
  return out;
}

StatusOr<PeriodEstimate> DetectPeriod(const std::vector<double>& v,
                                      size_t min_lag, size_t max_lag,
                                      double min_strength) {
  if (min_lag == 0 || max_lag < min_lag) {
    return Status::InvalidArgument("DetectPeriod: bad lag range");
  }
  if (v.size() < max_lag + 2) {
    return Status::InvalidArgument("DetectPeriod: series shorter than max_lag");
  }
  std::vector<double> acf = AutocorrelationFunction(v, max_lag + 1);
  PeriodEstimate best;
  for (size_t lag = std::max<size_t>(2, min_lag); lag <= max_lag; ++lag) {
    double cur = acf[lag - 1];
    double prev = acf[lag - 2];
    double next = acf[lag];  // acf has max_lag+1 entries
    bool local_peak = cur >= prev && cur >= next;
    if (local_peak && cur > best.strength) {
      best.period = lag;
      best.strength = cur;
    }
  }
  if (best.period == 0 || best.strength < min_strength) {
    return Status::NotFound("DetectPeriod: no autocorrelation peak above threshold");
  }
  return best;
}

}  // namespace dbaugur::ts
