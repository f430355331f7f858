// Temporal Convolutional Network forecaster (paper setup: five residual
// levels with dilation factors 1, 2, 4, 8, 16) — the ensemble's long-term
// "global view" member.

#pragma once

#include <memory>
#include <vector>

#include "models/neural_common.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

/// TCN sizes; dilations default to the paper's 1,2,4,8,16.
struct TcnOptions {
  size_t channels = 16;
  std::vector<size_t> dilations = {1, 2, 4, 8, 16};
};

class TcnForecaster : public NeuralForecaster {
 public:
  TcnForecaster(const ForecasterOptions& opts, const TcnOptions& tcn);
  explicit TcnForecaster(const ForecasterOptions& opts)
      : TcnForecaster(opts, TcnOptions{}) {}

  std::string name() const override { return "TCN"; }

  /// One epoch over the PrepareTraining dataset.
  Status TrainEpoch();

  /// The blocks in order, then the head.
  std::vector<nn::Param> Params() const override;

 private:
  const nn::Matrix& ForwardBatch(const nn::Matrix& xb) const override;
  Status RunEpoch() override { return TrainEpoch(); }
  void ReleaseWorkspaces() override;

  TcnOptions tcn_opts_;
  mutable std::vector<std::unique_ptr<nn::TCNBlock>> blocks_;
  mutable nn::Dense head_;
  nn::Adam adam_;
  // Batch workspaces reused across batches (mutable: Predict is const).
  mutable nn::Matrix xb_, y_, grad_, feats_;
  mutable nn::Tensor3 t_in_, dt_;
};

}  // namespace dbaugur::models
