#include "ts/window_dataset.h"

namespace dbaugur::ts {

StatusOr<std::vector<WindowSample>> MakeWindows(
    const std::vector<double>& values, const WindowDatasetOptions& opts) {
  if (opts.window == 0) return Status::InvalidArgument("window must be > 0");
  if (opts.horizon == 0) return Status::InvalidArgument("horizon must be > 0");
  if (values.size() < opts.window + opts.horizon) {
    return Status::InvalidArgument("series too short for window+horizon");
  }
  std::vector<WindowSample> out;
  // Window covers [i, i+window); target at i+window-1+horizon.
  for (size_t i = 0; i + opts.window - 1 + opts.horizon < values.size();
       ++i) {
    WindowSample s;
    s.window.assign(values.begin() + static_cast<ptrdiff_t>(i),
                    values.begin() + static_cast<ptrdiff_t>(i + opts.window));
    s.target_index = i + opts.window - 1 + opts.horizon;
    s.target = values[s.target_index];
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace dbaugur::ts
