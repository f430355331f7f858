#include "models/forecaster.h"

#include "common/contracts.h"

namespace dbaugur::models {

Status Forecaster::FitStep(size_t step, const std::vector<double>& series) {
  DBAUGUR_CHECK_LT(step, FitSteps(), name(), ": fit step out of range");
  return Fit(series);
}

StatusOr<EvalResult> EvaluateForecaster(const Forecaster& model,
                                        const std::vector<double>& series,
                                        size_t train_size, size_t window,
                                        size_t horizon) {
  if (window == 0 || horizon == 0) {
    return Status::InvalidArgument("window and horizon must be positive");
  }
  if (train_size + horizon >= series.size() || train_size < window) {
    return Status::InvalidArgument("not enough data to evaluate");
  }
  EvalResult out;
  // First prediction targets index train_size + horizon - 1... we target every
  // index t in [train_size, series.size()) whose window fits.
  for (size_t target = train_size; target < series.size(); ++target) {
    if (target < window - 1 + horizon) continue;
    size_t window_end = target - horizon;  // inclusive index of last input
    size_t window_begin = window_end + 1 - window;
    DBAUGUR_DCHECK_LT(window_end, series.size(),
                      "EvaluateForecaster window exceeds series");
    DBAUGUR_DCHECK_LE(window_begin, window_end,
                      "EvaluateForecaster window inverted");
    std::vector<double> w(series.begin() + static_cast<ptrdiff_t>(window_begin),
                          series.begin() + static_cast<ptrdiff_t>(window_end + 1));
    auto pred = model.Predict(w);
    if (!pred.ok()) return pred.status();
    out.predicted.push_back(*pred);
    out.actual.push_back(series[target]);
    out.target_index.push_back(target);
  }
  if (out.predicted.empty()) {
    return Status::InvalidArgument("no evaluable targets");
  }
  return out;
}

}  // namespace dbaugur::models
