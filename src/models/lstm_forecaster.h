// LSTM forecaster baseline (paper setup: input length 30, hidden/output
// dimension 16, dense head producing the final value).

#pragma once

#include "models/neural_common.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

/// LSTM-specific sizes.
struct LstmOptions {
  size_t hidden = 16;
};

class LstmForecaster : public NeuralForecaster {
 public:
  LstmForecaster(const ForecasterOptions& opts, const LstmOptions& lstm);
  explicit LstmForecaster(const ForecasterOptions& opts)
      : LstmForecaster(opts, LstmOptions{}) {}

  std::string name() const override { return "LSTM"; }

  /// One epoch over the PrepareTraining dataset.
  Status TrainEpoch();

  /// The LSTM, then the head.
  std::vector<nn::Param> Params() const override;

 private:
  const nn::Matrix& ForwardBatch(const nn::Matrix& x) const override;
  Status RunEpoch() override { return TrainEpoch(); }
  void ReleaseWorkspaces() override;

  LstmOptions lstm_opts_;
  mutable nn::LSTM lstm_;
  mutable nn::Dense head_;
  nn::Adam adam_;
  // Batch workspaces reused across batches.
  nn::Matrix xb_, y_, grad_;
  std::vector<nn::Matrix> xs_, grad_hs_;
};

}  // namespace dbaugur::models
