#include "models/factory.h"

#include "models/arima.h"
#include "models/kernel_regression.h"
#include "models/linear_regression.h"
#include "models/lstm_forecaster.h"
#include "models/mlp.h"
#include "models/tcn.h"
#include "models/wfgan.h"

namespace dbaugur::models {

StatusOr<std::unique_ptr<Forecaster>> MakeForecaster(
    const std::string& name, const ForecasterOptions& opts) {
  std::unique_ptr<Forecaster> model;
  if (name == "LR") {
    model = std::make_unique<LinearRegressionForecaster>(opts);
  } else if (name == "ARIMA") {
    model = std::make_unique<ArimaForecaster>(opts);
  } else if (name == "KR") {
    model = std::make_unique<KernelRegressionForecaster>(opts);
  } else if (name == "MLP") {
    model = std::make_unique<MlpForecaster>(opts);
  } else if (name == "LSTM") {
    model = std::make_unique<LstmForecaster>(opts);
  } else if (name == "TCN") {
    model = std::make_unique<TcnForecaster>(opts);
  } else if (name == "WFGAN") {
    model = std::make_unique<WfganForecaster>(opts);
  } else {
    return Status::NotFound("unknown model name: " + name);
  }
  return model;
}

}  // namespace dbaugur::models
