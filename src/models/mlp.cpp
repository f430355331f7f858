#include "models/mlp.h"

#include <vector>

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
      l3_(kHidden2, 1, nn::Activation::kIdentity, &rng_) {}

std::vector<nn::Param> MlpForecaster::Params() const {
  std::vector<nn::Param> params = l1_.Params();
  for (auto& p : l2_.Params()) params.push_back(p);
  for (auto& p : l3_.Params()) params.push_back(p);
  return params;
}

void MlpForecaster::ReleaseWorkspaces() {
  l1_.ReleaseWorkspaces();
  l2_.ReleaseWorkspaces();
  l3_.ReleaseWorkspaces();
}

const nn::Matrix& MlpForecaster::ForwardBatch(const nn::Matrix& x) const {
  return l3_.Forward(l2_.Forward(l1_.Forward(x)));
}

void MlpForecaster::Backward(const nn::Matrix& grad_pred) {
  l1_.Backward(l2_.Backward(l3_.Backward(grad_pred)));
}

}  // namespace dbaugur::models
