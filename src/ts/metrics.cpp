#include "ts/metrics.h"

#include <cmath>

namespace dbaugur::ts {

namespace {
Status CheckShapes(const std::vector<double>& p, const std::vector<double>& a) {
  if (p.size() != a.size()) {
    return Status::InvalidArgument("metric: size mismatch");
  }
  if (p.empty()) return Status::InvalidArgument("metric: empty input");
  return Status::OK();
}
}  // namespace

StatusOr<double> MSE(const std::vector<double>& predicted,
                     const std::vector<double>& actual) {
  DBAUGUR_RETURN_IF_ERROR(CheckShapes(predicted, actual));
  double s = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    double d = predicted[i] - actual[i];
    s += d * d;
  }
  return s / static_cast<double>(predicted.size());
}

StatusOr<double> MAE(const std::vector<double>& predicted,
                     const std::vector<double>& actual) {
  DBAUGUR_RETURN_IF_ERROR(CheckShapes(predicted, actual));
  double s = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    s += std::fabs(predicted[i] - actual[i]);
  }
  return s / static_cast<double>(predicted.size());
}

StatusOr<double> SMAPE(const std::vector<double>& predicted,
                       const std::vector<double>& actual) {
  DBAUGUR_RETURN_IF_ERROR(CheckShapes(predicted, actual));
  double s = 0.0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    double denom = (std::fabs(predicted[i]) + std::fabs(actual[i])) / 2.0;
    if (denom > 0.0) s += std::fabs(predicted[i] - actual[i]) / denom;
  }
  return s / static_cast<double>(predicted.size());
}

}  // namespace dbaugur::ts
