// The value scaler. Neural models train on normalized traces; predictions are
// mapped back to the original scale before computing MSE so reported errors
// are comparable across models.

#pragma once

#include <vector>

#include "common/status.h"

namespace dbaugur::ts {

/// Min-max scaler mapping the fitted range onto [0, 1].
class MinMaxScaler {
 public:
  /// Learns the range from `v`. A constant series maps everything to 0.5.
  Status Fit(const std::vector<double>& v);

  double Transform(double x) const;
  double Inverse(double x) const;
  std::vector<double> Transform(const std::vector<double>& v) const;

  /// Restores a previously fitted range (snapshot load path). `lo > hi` is
  /// rejected; `lo == hi` reproduces the constant-series behavior.
  Status Restore(double lo, double hi);

  bool fitted() const { return fitted_; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  bool fitted_ = false;
  double min_ = 0.0;
  double max_ = 1.0;
};

}  // namespace dbaugur::ts
