#include "models/lstm_forecaster.h"

#include <vector>

namespace dbaugur::models {

LstmForecaster::LstmForecaster(const ForecasterOptions& opts,
                               const LstmOptions& lstm)
    : NeuralForecaster(opts),
      lstm_(1, lstm.hidden, &rng_),
      head_(lstm.hidden, 1, nn::Activation::kIdentity, &rng_) {}

std::vector<nn::Param> LstmForecaster::Params() const {
  std::vector<nn::Param> params = lstm_.Params();
  for (auto& p : head_.Params()) params.push_back(p);
  return params;
}

void LstmForecaster::ReleaseWorkspaces() {
  for (std::vector<nn::Matrix>* v : {&xs_, &grad_hs_}) {
    *v = std::vector<nn::Matrix>();
  }
  lstm_.ReleaseWorkspaces();
  head_.ReleaseWorkspaces();
}

const nn::Matrix& LstmForecaster::ForwardBatch(const nn::Matrix& x) const {
  ToTimeMajorInto(x, &xs_);
  return head_.Forward(lstm_.ForwardSequence(xs_).back());
}

void LstmForecaster::Backward(const nn::Matrix& grad_pred) {
  LastStepGradSequence(head_.Backward(grad_pred), xs_.size(), &grad_hs_);
  lstm_.BackwardSequence(grad_hs_);
}

}  // namespace dbaugur::models
