#include "models/mlp.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "models/neural_common.h"
#include "nn/loss.h"

namespace dbaugur::models {

namespace {
// Hidden layer widths (paper: 32 and 16 units).
constexpr size_t kHidden1 = 32;
constexpr size_t kHidden2 = 16;
}  // namespace

MlpForecaster::MlpForecaster(const ForecasterOptions& opts)
    : NeuralForecaster(opts),
      l1_(opts.window, kHidden1, nn::Activation::kRelu, &rng_),
      l2_(kHidden1, kHidden2, nn::Activation::kRelu, &rng_),
      l3_(kHidden2, 1, nn::Activation::kIdentity, &rng_),
      adam_(kLearningRate) {}

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
    nn::ClipGradNorm(params, kGradClip);
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

}  // namespace dbaugur::models
