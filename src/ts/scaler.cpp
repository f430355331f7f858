#include "ts/scaler.h"

#include <algorithm>

namespace dbaugur::ts {

Status MinMaxScaler::Fit(const std::vector<double>& v) {
  if (v.empty()) return Status::InvalidArgument("MinMaxScaler: empty input");
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  min_ = *lo;
  max_ = *hi;
  fitted_ = true;
  return Status::OK();
}

Status MinMaxScaler::Restore(double lo, double hi) {
  if (!(lo <= hi)) {  // also rejects NaN bounds
    return Status::InvalidArgument("MinMaxScaler: invalid restored range");
  }
  min_ = lo;
  max_ = hi;
  fitted_ = true;
  return Status::OK();
}

double MinMaxScaler::Transform(double x) const {
  double range = max_ - min_;
  if (range <= 0.0) return 0.5;
  return (x - min_) / range;
}

double MinMaxScaler::Inverse(double x) const {
  double range = max_ - min_;
  if (range <= 0.0) return min_;
  return x * range + min_;
}

std::vector<double> MinMaxScaler::Transform(const std::vector<double>& v) const {
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = Transform(v[i]);
  return out;
}

}  // namespace dbaugur::ts
