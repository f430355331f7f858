// Sliding-window supervised dataset construction.
//
// Forecasting models train on (condition window, target) pairs: the window is
// the trailing T values (x_{t-T+1..t}) and the target is x_{t+H} for horizon H
// (in *steps* of the forecasting interval).

#pragma once

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace dbaugur::ts {

/// One training pair: `window` has length T; `target` is the value H steps
/// after the window's last element.
struct WindowSample {
  std::vector<double> window;
  double target = 0.0;
  /// Index into the source vector of the target element.
  size_t target_index = 0;
};

/// Options controlling window extraction.
struct WindowDatasetOptions {
  size_t window = 30;   ///< T — condition window length.
  size_t horizon = 1;   ///< H — steps ahead of the window's end.
};

/// Extracts every complete (window, target) pair from `values`, one per
/// start index.
/// Returns InvalidArgument when values are too short for even one sample or
/// when options are degenerate.
StatusOr<std::vector<WindowSample>> MakeWindows(
    const std::vector<double>& values, const WindowDatasetOptions& opts);

}  // namespace dbaugur::ts
