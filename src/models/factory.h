// Name-based model construction used by benches and the core pipeline.

#pragma once

#include <memory>
#include <string>

#include "models/forecaster.h"

namespace dbaugur::models {

/// Builds a forecaster by name: "LR", "ARIMA", "KR", "MLP", "LSTM", "TCN",
/// "WFGAN" (paper default configurations). Returns NotFound for unknown
/// names.
StatusOr<std::unique_ptr<Forecaster>> MakeForecaster(
    const std::string& name, const ForecasterOptions& opts);

}  // namespace dbaugur::models
