// Multi-task WFGAN (paper §V-A): the query-trace and resource-trace
// forecasting tasks are trained jointly. The shallow network — the generator
// LSTM — is shared between both tasks while each task keeps its own
// attention layer, dense head, and discriminator ("the shallow network
// parameters in the hidden layer will be shared by both forecasting models,
// while their deep network parameters will be optimized separately").

#pragma once

#include <array>

#include "common/rng.h"
#include "models/forecaster.h"
#include "models/wfgan.h"
#include "nn/attention.h"
#include "nn/dense.h"
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

  /// Jointly trains on the query trace and the resource trace.
  Status Fit(const std::vector<double>& query_series,
             const std::vector<double>& resource_series);

  /// Predicts the raw-scale value H steps after the window for one task.
  StatusOr<double> Predict(WorkloadTask task,
                           const std::vector<double>& window) const;

  int64_t ParameterCount() const;
  /// Parameters in the shared trunk only (tests assert sharing is real).
  int64_t SharedParameterCount() const;

 private:
  struct TaskNet {
    std::unique_ptr<nn::TemporalAttention> attn;
    std::unique_ptr<nn::Dense> head;
    std::unique_ptr<nn::LSTM> d_lstm;
    std::unique_ptr<nn::TemporalAttention> d_attn;
    std::unique_ptr<nn::Dense> d_head;
    ts::MinMaxScaler scaler;
    std::vector<ts::WindowSample> samples;
  };

  const nn::Matrix& GenForward(TaskNet& t,
                               const std::vector<nn::Matrix>& xs) const;
  void GenBackward(TaskNet& t, const nn::Matrix& grad_pred, size_t steps,
                   size_t batch) const;
  const nn::Matrix& DiscForward(TaskNet& t,
                                const std::vector<nn::Matrix>& xs) const;
  const std::vector<nn::Matrix>& DiscBackward(TaskNet& t,
                                              const nn::Matrix& grad,
                                              size_t steps,
                                              size_t batch) const;
  std::vector<nn::Param> TaskGenParams(TaskNet& t) const;
  std::vector<nn::Param> DiscParams(TaskNet& t) const;

  Status TrainEpoch();

  ForecasterOptions opts_;
  WfganOptions gan_;
  mutable Rng rng_;
  mutable nn::LSTM shared_lstm_;  // shared shallow trunk
  mutable std::array<TaskNet, 2> tasks_;
  nn::Adam g_adam_;
  std::array<nn::Adam, 2> d_adams_;
  // Batch workspaces reused across batches (mutable: used from const paths).
  mutable nn::Matrix xb_, grad_pred_, mse_grad_, grad_real_, grad_fake_,
      grad_logit_, real_labels_, fake_labels_;
  mutable std::array<nn::Matrix, 2> ys_;
  mutable std::array<std::vector<nn::Matrix>, 2> xs_;
  mutable std::vector<nn::Matrix> xs_real_, xs_fake_, grad_hs_;
  bool fitted_ = false;
};

}  // namespace dbaugur::models
