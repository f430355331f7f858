// Linear autoregressive baseline (the paper's "LR"): the target H steps ahead
// is a learned linear function of the trailing window (plus bias), fitted by
// ridge-regularized least squares.

#pragma once

#include "models/forecaster.h"

namespace dbaugur::models {

class LinearRegressionForecaster : public Forecaster {
 public:
  explicit LinearRegressionForecaster(const ForecasterOptions& opts)
      : opts_(opts) {}

  Status Fit(const std::vector<double>& series) override;
  StatusOr<double> Predict(const std::vector<double>& window) const override;
  std::string name() const override { return "LR"; }
  int64_t StorageBytes() const override;
  int64_t ParameterCount() const override {
    return static_cast<int64_t>(coef_.size());
  }

 private:
  ForecasterOptions opts_;
  std::vector<double> coef_;  // window weights followed by bias
  bool fitted_ = false;
};

}  // namespace dbaugur::models
