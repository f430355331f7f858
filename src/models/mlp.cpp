#include "models/mlp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "models/neural_common.h"
#include "nn/loss.h"
#include "nn/serialize.h"

namespace dbaugur::models {

MlpForecaster::MlpForecaster(const ForecasterOptions& opts,
                             const MlpOptions& mlp)
    : NeuralForecaster(opts),
      mlp_(mlp),
      rng_(opts.seed),
      l1_(opts.window, mlp.hidden1, nn::Activation::kRelu, &rng_),
      l2_(mlp.hidden1, mlp.hidden2, nn::Activation::kRelu, &rng_),
      l3_(mlp.hidden2, 1, nn::Activation::kIdentity, &rng_),
      adam_(opts.learning_rate) {}

Status MlpForecaster::TrainEpoch() {
  if (train_samples_.empty()) {
    return Status::FailedPrecondition("MLP: PrepareTraining not called");
  }
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> params = Params();
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &x_);
    BatchTargetsInto(train_samples_, order, begin, count, &y_);
    const nn::Matrix& pred = ForwardBatch(x_);
    nn::MSELoss(pred, y_, &grad_);
    for (auto& p : params) p.grad->Fill(0.0);
    l1_.Backward(l2_.Backward(l3_.Backward(grad_)));
    nn::ClipGradNorm(params, opts_.grad_clip);
    adam_.Step(params);
  }
  return Status::OK();
}

std::vector<nn::Param> MlpForecaster::Params() const {
  std::vector<nn::Param> params = l1_.Params();
  for (auto& p : l2_.Params()) params.push_back(p);
  for (auto& p : l3_.Params()) params.push_back(p);
  return params;
}

void MlpForecaster::ReleaseWorkspaces() {
  for (nn::Matrix* m : {&x_, &y_, &grad_}) *m = nn::Matrix();
  l1_.ReleaseWorkspaces();
  l2_.ReleaseWorkspaces();
  l3_.ReleaseWorkspaces();
}

const nn::Matrix& MlpForecaster::ForwardBatch(const nn::Matrix& x) const {
  return l3_.Forward(l2_.Forward(l1_.Forward(x)));
}

StatusOr<double> MlpForecaster::Predict(
    const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("MLP: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("MLP: window size mismatch");
  }
  nn::Matrix x(1, window.size());
  for (size_t j = 0; j < window.size(); ++j) {
    x(0, j) = scaler_.Transform(window[j]);
  }
  const nn::Matrix& pred = ForwardBatch(x);
  return scaler_.Inverse(pred(0, 0));
}

StatusOr<std::vector<uint8_t>> MlpForecaster::SaveState() const {
  return SerializeNeuralState({&scaler_}, Params());
}

Status MlpForecaster::LoadState(const std::vector<uint8_t>& buffer) {
  DBAUGUR_RETURN_IF_ERROR(DeserializeNeuralState(buffer, {&scaler_}, Params()));
  fitted_ = true;
  return Status::OK();
}

int64_t MlpForecaster::StorageBytes() const {
  return nn::StorageBytes(Params());
}

int64_t MlpForecaster::ParameterCount() const {
  int64_t n = 0;
  for (auto& p : Params()) n += static_cast<int64_t>(p.value->size());
  return n;
}

}  // namespace dbaugur::models
