// MLP forecaster (the paper's short-term "local view" model): two hidden
// layers of 32 and 16 ReLU units over the raw condition window.

#pragma once

#include "models/neural_common.h"
#include "nn/dense.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

class MlpForecaster : public NeuralForecaster {
 public:
  explicit MlpForecaster(const ForecasterOptions& opts);

  std::string name() const override { return "MLP"; }

  /// Runs exactly one training epoch (used by Table II timing) on the dataset
  /// PrepareTraining built; FailedPrecondition without one (Fit frees its
  /// own).
  Status TrainEpoch();

  /// l1, l2, l3.
  std::vector<nn::Param> Params() const override;

 private:
  const nn::Matrix& ForwardBatch(const nn::Matrix& x) const override;
  Status RunEpoch() override { return TrainEpoch(); }
  void ReleaseWorkspaces() override;

  mutable nn::Dense l1_, l2_, l3_;
  nn::Adam adam_;
  // Batch workspaces reused across batches.
  nn::Matrix x_, y_, grad_;
};

}  // namespace dbaugur::models
