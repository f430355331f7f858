// Forecast error metrics. The paper evaluates with Mean Square Error (MSE).

#pragma once

#include <vector>

#include "common/status.h"

namespace dbaugur::ts {

/// Mean squared error between predictions and actuals.
StatusOr<double> MSE(const std::vector<double>& predicted,
                     const std::vector<double>& actual);

/// Mean absolute error.
StatusOr<double> MAE(const std::vector<double>& predicted,
                     const std::vector<double>& actual);

/// Symmetric mean absolute percentage error in [0, 2].
StatusOr<double> SMAPE(const std::vector<double>& predicted,
                       const std::vector<double>& actual);

}  // namespace dbaugur::ts
