// LSTM forecaster baseline (paper setup: input length 30, hidden/output
// dimension 16, dense head producing the final value).

#pragma once

#include "common/rng.h"
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

  StatusOr<double> Predict(const std::vector<double>& window) const override;
  std::string name() const override { return "LSTM"; }
  int64_t StorageBytes() const override;
  int64_t ParameterCount() const override;

  /// One epoch over the PrepareTraining dataset.
  Status TrainEpoch();

  /// Parameter tensors in layer order (lstm, head) — used by serialization.
  std::vector<nn::Param> Params() const;

  /// Lossless snapshot of weights + scaler (serve/ system snapshots).
  StatusOr<std::vector<uint8_t>> SaveState() const override;
  Status LoadState(const std::vector<uint8_t>& buffer) override;

 private:
  Status RunEpoch() override { return TrainEpoch(); }
  void ReleaseWorkspaces() override;

  LstmOptions lstm_opts_;
  mutable Rng rng_;
  mutable nn::LSTM lstm_;
  mutable nn::Dense head_;
  nn::Adam adam_;
  // Batch workspaces reused across batches.
  nn::Matrix xb_, y_, grad_;
  std::vector<nn::Matrix> xs_, grad_hs_;
};

}  // namespace dbaugur::models
