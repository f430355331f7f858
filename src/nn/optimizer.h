// The optimizer. The paper trains all neural models with Adam.

#pragma once

#include <vector>

#include "nn/layer.h"

namespace dbaugur::nn {

/// Adam (Kingma & Ba, 2015) with per-parameter first/second moment buffers
/// and that paper's default decay rates and epsilon. Buffers are keyed by
/// position in the param list, so Step must always be called with the same
/// parameter ordering.
class Adam {
 public:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;

  explicit Adam(double lr) : lr_(lr) {}

  /// Updates each parameter in place from its gradient. Gradients are NOT
  /// zeroed — callers do that between steps (each layer's ZeroGrad, or
  /// Fill(0.0) on every Param::grad).
  void Step(std::vector<Param>& params);

 private:
  double lr_;
  int64_t t_ = 0;
  std::vector<Matrix> m_, v_;
};

}  // namespace dbaugur::nn
