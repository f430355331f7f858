#include "models/lstm_forecaster.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "models/neural_common.h"
#include "nn/loss.h"

namespace dbaugur::models {

LstmForecaster::LstmForecaster(const ForecasterOptions& opts,
                               const LstmOptions& lstm)
    : NeuralForecaster(opts),
      lstm_opts_(lstm),
      lstm_(1, lstm.hidden, &rng_),
      head_(lstm.hidden, 1, nn::Activation::kIdentity, &rng_),
      adam_(kLearningRate) {}

Status LstmForecaster::TrainEpoch() {
  if (train_samples_.empty()) {
    return Status::FailedPrecondition("LSTM: PrepareTraining not called");
  }
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> params = Params();
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &xb_);
    BatchTargetsInto(train_samples_, order, begin, count, &y_);
    ToTimeMajorInto(xb_, &xs_);
    const std::vector<nn::Matrix>& hs = lstm_.ForwardSequence(xs_);
    const nn::Matrix& pred = head_.Forward(hs.back());
    nn::MSELoss(pred, y_, &grad_);
    for (auto& p : params) p.grad->Fill(0.0);
    LastStepGradSequence(head_.Backward(grad_), hs.size(), count,
                         lstm_opts_.hidden, &grad_hs_);
    lstm_.BackwardSequence(grad_hs_);
    nn::ClipGradNorm(params, kGradClip);
    adam_.Step(params);
  }
  return Status::OK();
}

std::vector<nn::Param> LstmForecaster::Params() const {
  std::vector<nn::Param> params = lstm_.Params();
  for (auto& p : head_.Params()) params.push_back(p);
  return params;
}

void LstmForecaster::ReleaseWorkspaces() {
  for (nn::Matrix* m : {&xb_, &y_, &grad_}) *m = nn::Matrix();
  for (std::vector<nn::Matrix>* v : {&xs_, &grad_hs_}) {
    *v = std::vector<nn::Matrix>();
  }
  lstm_.ReleaseWorkspaces();
  head_.ReleaseWorkspaces();
}

const nn::Matrix& LstmForecaster::ForwardBatch(const nn::Matrix& x) const {
  std::vector<nn::Matrix> xs;
  ToTimeMajorInto(x, &xs);
  return head_.Forward(lstm_.ForwardSequence(xs).back());
}

}  // namespace dbaugur::models
