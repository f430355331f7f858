// The optimizer. The paper trains all neural models with Adam.

#pragma once

#include <vector>

#include "nn/layer.h"

namespace dbaugur::nn {

/// Adam (Kingma & Ba, 2015) with per-parameter first/second moment buffers.
/// Buffers are keyed by position in the param list, so Step must always be
/// called with the same parameter ordering.
class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// Updates each parameter in place from its gradient. Gradients are NOT
  /// zeroed — callers do that between steps (each layer's ZeroGrad, or
  /// Fill(0.0) on every Param::grad).
  void Step(std::vector<Param>& params);

 private:
  double lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<Matrix> m_, v_;
};

}  // namespace dbaugur::nn
