#include "models/linear_regression.h"

#include "common/math_utils.h"
#include "ts/window_dataset.h"

namespace dbaugur::models {

Status LinearRegressionForecaster::Fit(const std::vector<double>& series) {
  ts::WindowDatasetOptions wopts{opts_.window, opts_.horizon};
  auto samples = ts::MakeWindows(series, wopts);
  if (!samples.ok()) return samples.status();
  size_t rows = samples->size();
  size_t cols = opts_.window + 1;  // + bias
  std::vector<double> x(rows * cols, 0.0);
  std::vector<double> y(rows, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const auto& s = (*samples)[r];
    for (size_t j = 0; j < opts_.window; ++j) x[r * cols + j] = s.window[j];
    x[r * cols + opts_.window] = 1.0;
    y[r] = s.target;
  }
  auto beta = LeastSquares(x, y, rows, cols, /*ridge=*/1e-6);
  if (!beta.ok()) return beta.status();
  coef_ = std::move(beta).value();
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> LinearRegressionForecaster::Predict(
    const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("LR: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("LR: window size mismatch");
  }
  double y = coef_.back();
  for (size_t j = 0; j < window.size(); ++j) y += coef_[j] * window[j];
  return y;
}

int64_t LinearRegressionForecaster::StorageBytes() const {
  return static_cast<int64_t>(coef_.size()) * 4 + 8;
}

}  // namespace dbaugur::models
