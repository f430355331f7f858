// MLP forecaster (the paper's short-term "local view" model): two hidden
// layers of 32 and 16 ReLU units over the raw condition window.

#pragma once

#include "models/neural_common.h"
#include "nn/dense.h"

namespace dbaugur::models {

class MlpForecaster : public NeuralForecaster {
 public:
  explicit MlpForecaster(const ForecasterOptions& opts);

  std::string name() const override { return "MLP"; }

  /// l1, l2, l3.
  std::vector<nn::Param> Params() const override;

 private:
  const nn::Matrix& ForwardBatch(const nn::Matrix& x) const override;
  void Backward(const nn::Matrix& grad_pred) override;
  void ReleaseWorkspaces() override;

  mutable nn::Dense l1_, l2_, l3_;
};

}  // namespace dbaugur::models
