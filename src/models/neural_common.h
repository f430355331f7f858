// Shared plumbing for the neural forecasters: their common base, which owns
// the model contract (epoch loop, Predict, state and size accounting),
// min-max-scaled sliding-window datasets, and batch assembly in the layouts
// the nn substrate expects.

#pragma once

#include <vector>

#include "common/rng.h"
#include "models/forecaster.h"
#include "nn/layer.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "ts/scaler.h"
#include "ts/window_dataset.h"

namespace dbaugur::models {

/// Adam learning rate of every neural model's optimizers.
inline constexpr double kLearningRate = 1e-3;
/// Global-norm gradient clip applied before each optimizer step.
inline constexpr double kGradClip = 5.0;

/// Window samples in [0,1] scale plus the scaler that maps back to raw scale.
struct ScaledDataset {
  std::vector<ts::WindowSample> samples;
  ts::MinMaxScaler scaler;
};

/// Fits a MinMaxScaler on `series` and extracts scaled (window, target) pairs.
StatusOr<ScaledDataset> BuildScaledDataset(const std::vector<double>& series,
                                           const ForecasterOptions& opts);

/// Base of the epoch-trained forecasters (WFGAN, TCN, MLP, LSTM). A model
/// supplies its layers: Params(), ForwardBatch on scaled windows, Backward
/// from dLoss/dForecast and ReleaseWorkspaces. The base owns the rest of the
/// Forecaster contract: the rng_ seeded from opts.seed that the layers draw
/// their initial weights from, Predict, state and size accounting over
/// Params(), and the one epoch loop with its minibatch buffers and the
/// optimizer of the forecasting network. Its minibatch step is supervised
/// (MSE); WFGAN supplies its own. Fit step 0 first builds the dataset, step
/// e trains epoch e, and the last step frees the dataset and every batch-
/// and step-shaped buffer and marks the model fitted. A fitted model so
/// keeps only its parameters, their gradient and Adam buffers, and the
/// scaler.
class NeuralForecaster : public Forecaster {
 public:
  /// Runs every fit step in order.
  Status Fit(const std::vector<double>& series) final;
  /// max(1, epochs): with no epochs the one step builds and frees the
  /// dataset.
  size_t FitSteps() const final;
  Status FitStep(size_t step, const std::vector<double>& series) final;
  /// Frees the batch- and step-shaped workspaces, which the next epoch
  /// rebuilds, and keeps the dataset, the weights and the Adam state.
  void SuspendFit() final { FreeWorkspaces(); }

  /// FailedPrecondition before a fit or LoadState, InvalidArgument unless
  /// the window holds T values; else the raw-scale forecast of ForwardBatch
  /// on the min-max-scaled window as a [1, T] row.
  StatusOr<double> Predict(const std::vector<double>& window) const final;
  /// nn::StorageBytes of Params() (Table II's Storage column).
  int64_t StorageBytes() const final;
  /// Scalars in Params().
  int64_t ParameterCount() const final;
  /// One blob: a magic, the scaler count (always 1), the scaler's state and
  /// a lossless float64 nn::SerializeParamsF64 blob of Params().
  StatusOr<std::vector<uint8_t>> SaveState() const final;
  /// Restores a SaveState blob and marks the model fitted. A corrupt,
  /// truncated or mismatched blob is InvalidArgument and changes neither
  /// the scaler nor any parameter.
  Status LoadState(const std::vector<uint8_t>& buffer) final;

  /// Parameter tensors in the model's layer order: what SaveState writes
  /// and StorageBytes and ParameterCount count.
  virtual std::vector<nn::Param> Params() const = 0;

  /// Builds the dataset TrainEpoch reads. Epoch-driven callers (benches,
  /// tests) call it and then TrainEpoch.
  Status PrepareTraining(const std::vector<double>& series);
  /// One epoch over the PrepareTraining dataset (Table II's timed unit):
  /// one shuffle, the parameter lists gathered once, then TrainBatch on
  /// each minibatch in shuffled order. FailedPrecondition without a dataset
  /// (Fit frees its own). Keeps its buffers across epochs, so it allocates
  /// nothing per batch, and never marks the model fitted.
  Status TrainEpoch();

 protected:
  /// The parameter lists one epoch's optimizer steps update.
  struct TrainedParams {
    std::vector<nn::Param> forecaster;     ///< What adam_ steps.
    std::vector<nn::Param> discriminator;  ///< WFGAN's D; else empty.
  };

  explicit NeuralForecaster(const ForecasterOptions& opts)
      : opts_(opts), rng_(opts.seed), adam_(kLearningRate) {}

  /// Predict's guard: OK once fitted and when `window` holds T values.
  Status CheckWindow(const std::vector<double>& window) const;
  /// Forecasts for the scaled windows in the rows of x ([batch, T]), as a
  /// [batch, 1] matrix in scaled space (network-owned workspace, valid until
  /// the next forward).
  virtual const nn::Matrix& ForwardBatch(const nn::Matrix& x) const = 0;
  /// Backpropagates dLoss/dForecast ([batch, 1]) through the last
  /// ForwardBatch, accumulating the parameter gradients.
  virtual void Backward(const nn::Matrix& grad_pred) = 0;
  /// Gathers the lists TrainBatch steps, once per epoch (a gather
  /// allocates): Params() as the forecaster's list by default.
  virtual TrainedParams GatherTrainedParams() const;
  /// One minibatch step on the windows in xb_ and the targets in y_. By
  /// default the supervised step: the MSE gradient of ForwardBatch, then
  /// StepForecaster.
  virtual void TrainBatch(TrainedParams& params);
  /// Zeroes the gradients in `params`, runs Backward(grad_pred), clips them
  /// to kGradClip and takes one adam_ step.
  void StepForecaster(std::vector<nn::Param>& params,
                      const nn::Matrix& grad_pred);
  /// Frees the model's own batch workspaces and its layers' workspaces.
  virtual void ReleaseWorkspaces() = 0;

  ForecasterOptions opts_;
  Rng rng_;
  ts::MinMaxScaler scaler_;
  std::vector<ts::WindowSample> train_samples_;
  bool fitted_ = false;
  nn::Adam adam_;  // the forecasting network's (WFGAN: the generator's)
  // The minibatch, reused across batches: windows [batch, T], targets.
  nn::Matrix xb_, y_;

 private:
  /// Frees the minibatch buffers, then ReleaseWorkspaces().
  void FreeWorkspaces();

  nn::Matrix grad_;  // the supervised step's dLoss/dForecast
};

/// Zeroes every gradient accumulator in `params`.
void ZeroGrads(const std::vector<nn::Param>& params);
/// Scalars in `params`.
int64_t ScalarCount(const std::vector<nn::Param>& params);

// Batch packing into the caller's buffers, so a training loop holds one batch
// workspace across all batches of an epoch instead of reallocating.

/// Packs selected samples' windows into *out as a [batch, T] matrix.
void BatchWindowsInto(const std::vector<ts::WindowSample>& samples,
                      const std::vector<size_t>& idx, size_t begin,
                      size_t count, nn::Matrix* out);

/// Packs selected samples' targets into *out as a [batch, 1] matrix.
void BatchTargetsInto(const std::vector<ts::WindowSample>& samples,
                      const std::vector<size_t>& idx, size_t begin,
                      size_t count, nn::Matrix* out);

/// Converts a [batch, T] matrix into a time-major sequence of [batch, 1]
/// matrices for recurrent layers (per-step buffers reused).
void ToTimeMajorInto(const nn::Matrix& batch, std::vector<nn::Matrix>* xs);

/// Converts a [batch, T] matrix into a [batch, 1 channel, T] tensor for
/// convolutional layers.
void ToTensor3Into(const nn::Matrix& batch, nn::Tensor3* out);

/// dst = xs ++ [tail], reusing dst's buffers (a plain `dst = xs;
/// dst.push_back(tail)` would free and reallocate every batch). Used to build
/// the discriminator's length-(T+1) real/fake sequences.
void CopySequenceWithTail(const std::vector<nn::Matrix>& xs,
                          const nn::Matrix& tail,
                          std::vector<nn::Matrix>* dst);

/// A `steps`-long gradient sequence that is zero but for its last step,
/// `dlast` (backward into an LSTM whose last state alone was read).
void LastStepGradSequence(const nn::Matrix& dlast, size_t steps,
                          std::vector<nn::Matrix>* dst);

}  // namespace dbaugur::models
