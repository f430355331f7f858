// MLP forecaster (the paper's short-term "local view" model): two hidden
// layers of 32 and 16 ReLU units over the raw condition window.

#pragma once

#include "common/rng.h"
#include "models/forecaster.h"
#include "nn/dense.h"
#include "nn/optimizer.h"
#include "ts/scaler.h"
#include "ts/window_dataset.h"

namespace dbaugur::models {

/// MLP-specific sizes (paper: 32 and 16 units).
struct MlpOptions {
  size_t hidden1 = 32;
  size_t hidden2 = 16;
};

class MlpForecaster : public Forecaster {
 public:
  MlpForecaster(const ForecasterOptions& opts, const MlpOptions& mlp);
  explicit MlpForecaster(const ForecasterOptions& opts)
      : MlpForecaster(opts, MlpOptions{}) {}

  /// Trains for `epochs` epochs, then frees the dataset and every batch- and
  /// step-shaped buffer: a fitted model keeps only its parameters, their
  /// gradient and Adam buffers, and the scaler. PrepareTraining/TrainEpoch
  /// keep their buffers (allocation-free steady state across epochs).
  Status Fit(const std::vector<double>& series) override;
  StatusOr<double> Predict(const std::vector<double>& window) const override;
  std::string name() const override { return "MLP"; }
  int64_t StorageBytes() const override;
  int64_t ParameterCount() const override;

  /// Builds the training dataset for TrainEpoch.
  Status PrepareTraining(const std::vector<double>& series);
  /// Runs exactly one training epoch (used by Table II timing) on the dataset
  /// PrepareTraining built; FailedPrecondition without one (Fit frees its
  /// own).
  Status TrainEpoch();

  /// Parameter tensors in layer order (l1, l2, l3) — used by serialization.
  std::vector<nn::Param> Params() const;

  /// Lossless snapshot of weights + scaler (serve/ system snapshots).
  StatusOr<std::vector<uint8_t>> SaveState() const override;
  Status LoadState(const std::vector<uint8_t>& buffer) override;

 private:
  const nn::Matrix& ForwardBatch(const nn::Matrix& x) const;
  /// Frees train_samples_, the batch workspaces and the layers' workspaces.
  void ReleaseTrainingBuffers();

  ForecasterOptions opts_;
  MlpOptions mlp_;
  mutable Rng rng_;
  mutable nn::Dense l1_, l2_, l3_;
  nn::Adam adam_;
  // Batch workspaces reused across batches.
  nn::Matrix x_, y_, grad_;
  ts::MinMaxScaler scaler_;
  std::vector<ts::WindowSample> train_samples_;
  bool fitted_ = false;
};

}  // namespace dbaugur::models
