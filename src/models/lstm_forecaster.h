// LSTM forecaster baseline (paper setup: input length 30, hidden/output
// dimension 16, dense head producing the final value).

#pragma once

#include "common/rng.h"
#include "models/forecaster.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "ts/scaler.h"
#include "ts/window_dataset.h"

namespace dbaugur::models {

/// LSTM-specific sizes.
struct LstmOptions {
  size_t hidden = 16;
};

class LstmForecaster : public Forecaster {
 public:
  LstmForecaster(const ForecasterOptions& opts, const LstmOptions& lstm);
  explicit LstmForecaster(const ForecasterOptions& opts)
      : LstmForecaster(opts, LstmOptions{}) {}

  /// Trains for `epochs` epochs, then frees the dataset and every batch- and
  /// step-shaped buffer: a fitted model keeps only its parameters, their
  /// gradient and Adam buffers, and the scaler. PrepareTraining/TrainEpoch
  /// keep their buffers (allocation-free steady state across epochs).
  Status Fit(const std::vector<double>& series) override;
  StatusOr<double> Predict(const std::vector<double>& window) const override;
  std::string name() const override { return "LSTM"; }
  int64_t StorageBytes() const override;
  int64_t ParameterCount() const override;

  Status PrepareTraining(const std::vector<double>& series);
  Status TrainEpoch();

  /// Parameter tensors in layer order (lstm, head) — used by serialization.
  std::vector<nn::Param> Params() const;

  /// Lossless snapshot of weights + scaler (serve/ system snapshots).
  StatusOr<std::vector<uint8_t>> SaveState() const override;
  Status LoadState(const std::vector<uint8_t>& buffer) override;

 private:
  /// Frees train_samples_, the batch workspaces and the layers' workspaces.
  void ReleaseTrainingBuffers();

  ForecasterOptions opts_;
  LstmOptions lstm_opts_;
  mutable Rng rng_;
  mutable nn::LSTM lstm_;
  mutable nn::Dense head_;
  nn::Adam adam_;
  // Batch workspaces reused across batches.
  nn::Matrix xb_, y_, grad_;
  std::vector<nn::Matrix> xs_, grad_hs_;
  ts::MinMaxScaler scaler_;
  std::vector<ts::WindowSample> train_samples_;
  bool fitted_ = false;
};

}  // namespace dbaugur::models
