// ARIMA(p,d,q) fitted with the Hannan–Rissanen two-stage procedure:
//   1. fit a long autoregression to the d-times differenced series to
//      estimate innovations;
//   2. regress each value on p AR lags and q estimated-innovation lags.
// Multi-step forecasts iterate the one-step equation with future innovations
// set to their mean (zero). The paper uses ARIMA(2,1,2).

#pragma once

#include "models/forecaster.h"

namespace dbaugur::models {

/// ARIMA-specific knobs on top of the shared options.
struct ArimaOptions {
  int p = 2;  ///< AR order.
  int d = 1;  ///< Differencing order (0..2 supported).
  int q = 2;  ///< MA order.
};

class ArimaForecaster : public Forecaster {
 public:
  ArimaForecaster(const ForecasterOptions& opts, const ArimaOptions& arima)
      : opts_(opts), arima_(arima) {}
  explicit ArimaForecaster(const ForecasterOptions& opts)
      : ArimaForecaster(opts, ArimaOptions{}) {}

  Status Fit(const std::vector<double>& series) override;
  StatusOr<double> Predict(const std::vector<double>& window) const override;
  std::string name() const override { return "ARIMA"; }
  int64_t StorageBytes() const override;
  int64_t ParameterCount() const override {
    return static_cast<int64_t>(1 + phi_.size() + theta_.size());
  }

  const std::vector<double>& ar_coefficients() const { return phi_; }

 private:
  ForecasterOptions opts_;
  ArimaOptions arima_;
  double intercept_ = 0.0;
  std::vector<double> phi_;    // AR coefficients, lag 1..p
  std::vector<double> theta_;  // MA coefficients, lag 1..q
  bool fitted_ = false;
};

}  // namespace dbaugur::models
