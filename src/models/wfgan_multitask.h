// Multi-task WFGAN (paper §V-A): the query-trace and resource-trace
// forecasting tasks are trained jointly. The shallow network — the generator
// LSTM — is shared between both tasks while each task keeps its own
// attention layer, dense head, and discriminator ("the shallow network
// parameters in the hidden layer will be shared by both forecasting models,
// while their deep network parameters will be optimized separately").
// Each generator is a WfganTower over the shared trunk, and training runs
// WFGAN's own Algorithm 2 steps (WfganSteps) for each task.

#pragma once

#include <array>
#include <memory>

#include "common/rng.h"
#include "models/forecaster.h"
#include "models/wfgan.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "ts/scaler.h"
#include "ts/window_dataset.h"

namespace dbaugur::models {

/// Task index within the multi-task model.
enum class WorkloadTask { kQuery = 0, kResource = 1 };

class MultiTaskWfgan {
 public:
  MultiTaskWfgan(const ForecasterOptions& opts, const WfganOptions& gan);

  /// Jointly trains on the query trace and the resource trace. The model
  /// counts as unfitted from the start of the call until it succeeds.
  Status Fit(const std::vector<double>& query_series,
             const std::vector<double>& resource_series);

  /// Predicts the raw-scale value H steps after the window for one task.
  StatusOr<double> Predict(WorkloadTask task,
                           const std::vector<double>& window) const;

  int64_t ParameterCount() const;
  /// Parameters in the shared trunk only (tests assert sharing is real).
  int64_t SharedParameterCount() const;

 private:
  /// One task's networks, dataset and minibatch.
  struct Task {
    /// Draws the generator's attention and head (over `trunk`), then the
    /// discriminator's LSTM, attention and head.
    Task(const WfganOptions& gan, Rng* rng, nn::LSTM* trunk)
        : gen(gan.hidden, gan.use_attention, rng, trunk),
          disc(gan.hidden, gan.use_attention, rng),
          d_adam(kLearningRate) {}

    WfganTower gen;   // over the shared trunk
    WfganTower disc;
    nn::Adam d_adam;
    ts::MinMaxScaler scaler;
    std::vector<ts::WindowSample> samples;
    nn::Matrix y;                 // minibatch targets
    std::vector<nn::Matrix> xs;   // time-major minibatch windows
  };

  /// One epoch of minibatches from both tasks: each batch takes a D-step
  /// per task, then one joint G-step in which both tasks' gradients add up
  /// in the trunk before a single Adam step.
  Status TrainEpoch();

  ForecasterOptions opts_;
  WfganOptions gan_;
  Rng rng_;
  std::unique_ptr<nn::LSTM> trunk_;  // shared shallow generator LSTM
  mutable std::array<Task, 2> tasks_;
  nn::Adam g_adam_;
  WfganSteps steps_;
  nn::Matrix xb_;  // batch-major windows, packed per task
  bool fitted_ = false;
};

}  // namespace dbaugur::models
