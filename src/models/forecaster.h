// Forecaster interface (paper Def. 4: x̂_{T+H} = F(x_1..x_T)).
//
// Every model is constructed with a condition-window length T and a horizon H
// (in steps of the forecasting interval), fitted on a raw-scale training
// series, and queried with the trailing T raw values. Models scale inputs
// internally and always return raw-scale predictions so MSE is comparable
// across models.

#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace dbaugur::models {

/// Shared hyper-parameters for all forecasting models.
struct ForecasterOptions {
  size_t window = 30;        ///< T — condition window length.
  size_t horizon = 1;        ///< H — steps ahead of the window's end.
  size_t epochs = 50;        ///< Training epochs (neural models).
  size_t batch_size = 32;    ///< Minibatch size (neural models).
  uint64_t seed = 42;        ///< RNG seed for weight init & batch order.
};

/// Abstract single-trace forecaster.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Trains on the given raw-scale series. Must be called before Predict.
  virtual Status Fit(const std::vector<double>& series) = 0;

  // Resumable fit: Fit is FitStep(0, series), ..., FitStep(FitSteps() - 1,
  // series), and SuspendFit may run between any two steps without changing a
  // bit of the result. A scheduler can so time-share few lanes among many
  // fits. The default is one step that calls Fit.

  /// Number of fit steps (>= 1).
  virtual size_t FitSteps() const { return 1; }
  /// Runs fit step `step`. Steps run in order from 0 on one series; a failed
  /// step ends the fit.
  virtual Status FitStep(size_t step, const std::vector<double>& series);
  /// Frees what the next step rebuilds, keeping what it resumes from.
  virtual void SuspendFit() {}

  /// Predicts the raw-scale value H steps after the end of `window`
  /// (window.size() must equal the configured T).
  virtual StatusOr<double> Predict(const std::vector<double>& window) const = 0;

  /// Human-readable model name ("LR", "TCN", "WFGAN", ...).
  virtual std::string name() const = 0;

  /// Serialized model size in bytes (Table II's Storage column).
  virtual int64_t StorageBytes() const = 0;

  /// Number of trainable scalar parameters (0 for non-parametric models).
  virtual int64_t ParameterCount() const { return 0; }

  /// Serializes everything Predict depends on (weights in lossless float64
  /// plus scaler state) so a freshly constructed model with the same options
  /// can be restored to produce bit-identical forecasts without retraining.
  /// Default: Unimplemented (non-parametric / classical models).
  virtual StatusOr<std::vector<uint8_t>> SaveState() const {
    return Status::Unimplemented(name() + ": state serialization not supported");
  }

  /// Restores a SaveState blob into a model constructed with the same
  /// options. Rejects corrupt/mismatched blobs with InvalidArgument and
  /// leaves Predict usable afterwards (the model counts as fitted).
  virtual Status LoadState(const std::vector<uint8_t>& /*buffer*/) {
    return Status::Unimplemented(name() + ": state serialization not supported");
  }
};

/// Rolling evaluation: walks the test region of `series` (everything after
/// `train_size`), predicting each reachable target from its trailing window
/// and returning (predictions, actuals) pairs aligned by index.
struct EvalResult {
  std::vector<double> predicted;
  std::vector<double> actual;
  /// Index into `series` of each target.
  std::vector<size_t> target_index;
};

/// Evaluates a fitted forecaster over the tail of `series` starting at
/// `train_size` (windows may reach back into the training region, matching
/// standard rolling-origin evaluation).
StatusOr<EvalResult> EvaluateForecaster(const Forecaster& model,
                                        const std::vector<double>& series,
                                        size_t train_size, size_t window,
                                        size_t horizon);

}  // namespace dbaugur::models
