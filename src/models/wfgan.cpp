#include "models/wfgan.h"

#include "common/math_utils.h"
#include "nn/loss.h"

namespace dbaugur::models {

WfganTower::WfganTower(size_t hidden, bool use_attention, Rng* rng,
                       nn::LSTM* shared)
    : use_attention_(use_attention),
      own_lstm_(shared == nullptr ? std::make_unique<nn::LSTM>(1, hidden, rng)
                                  : nullptr),
      lstm_(shared == nullptr ? own_lstm_.get() : shared),
      attn_(hidden, kAttnDim, rng),
      head_(hidden, 1, nn::Activation::kIdentity, rng) {}

const nn::Matrix& WfganTower::Forward(const std::vector<nn::Matrix>& xs,
                                      size_t first_step) {
  const std::vector<nn::Matrix>& hs = lstm_->ForwardSequence(xs, first_step);
  steps_ = hs.size();
  return head_.Forward(use_attention_ ? attn_.Forward(hs, first_step)
                                      : hs.back());
}

void WfganTower::Backward(const nn::Matrix& grad_out) {
  const nn::Matrix& dcontext = head_.Backward(grad_out);
  if (use_attention_) {
    lstm_->BackwardSequence(attn_.Backward(dcontext));
    return;
  }
  LastStepGradSequence(dcontext, steps_, &grad_hs_);
  lstm_->BackwardSequence(grad_hs_);
}

const nn::Matrix& WfganTower::LastStepInputGrad(const nn::Matrix& grad_out) {
  const nn::Matrix& dcontext = head_.InputGrad(grad_out);
  return lstm_->LastStepInputGrad(
      use_attention_ ? attn_.LastStepInputGrad(dcontext) : dcontext);
}

std::vector<nn::Param> WfganTower::Params() {
  std::vector<nn::Param> params;
  if (own_lstm_) params = own_lstm_->Params();
  if (use_attention_) {
    for (auto& p : attn_.Params()) params.push_back(p);
  }
  for (auto& p : head_.Params()) params.push_back(p);
  return params;
}

void WfganTower::ReleaseWorkspaces() {
  if (own_lstm_) own_lstm_->ReleaseWorkspaces();
  attn_.ReleaseWorkspaces();
  head_.ReleaseWorkspaces();
  grad_hs_ = std::vector<nn::Matrix>();
}

void WfganSteps::DiscriminatorStep(WfganTower* d,
                                   std::vector<nn::Param>& dparams,
                                   nn::Adam* adam,
                                   const std::vector<nn::Matrix>& xs,
                                   const nn::Matrix& y,
                                   const nn::Matrix& fake) {
  CopySequenceWithTail(xs, y, &xs_real_);
  CopySequenceWithTail(xs, fake, &xs_fake_);
  ZeroGrads(dparams);
  labels_.Resize(y.rows(), 1);
  labels_.Fill(kRealLabel);
  nn::BCEWithLogitsLoss(d->Forward(xs_real_), labels_, &grad_logit_);
  d->Backward(grad_logit_);
  // The fake batch equals the real one before its tail, and D does not
  // change between the two passes: the fake pass starts at the tail.
  labels_.Fill(0.0);
  nn::BCEWithLogitsLoss(d->Forward(xs_fake_, xs.size()), labels_,
                        &grad_logit_);
  d->Backward(grad_logit_);
  nn::ClipGradNorm(dparams, kGradClip);
  adam->Step(dparams);
}

const nn::Matrix& WfganSteps::GeneratorLossGrad(
    WfganTower* d, const std::vector<nn::Matrix>& xs, const nn::Matrix& y,
    const nn::Matrix& fake) {
  grad_pred_.Resize(y.rows(), 1);
  grad_pred_.Fill(0.0);
  nn::MSELoss(fake, y, &mse_grad_);
  grad_pred_.AddScaled(mse_grad_, gan_.supervised_weight);
  if (gan_.adversarial) {
    CopySequenceWithTail(xs, fake, &xs_fake_);
    const nn::Matrix& fake_logits = d->Forward(xs_fake_);
    if (gan_.saturating_g_loss) {
      nn::GeneratorGanLossSaturating(fake_logits, &grad_logit_);
    } else {
      nn::GeneratorGanLoss(fake_logits, &grad_logit_);
    }
    // Only the forecast's own input gradient feeds G; D's parameter
    // gradients are never formed here.
    grad_pred_.AddScaled(d->LastStepInputGrad(grad_logit_),
                         gan_.adversarial_weight);
  }
  return grad_pred_;
}

void WfganSteps::ReleaseWorkspaces() {
  for (nn::Matrix* m : {&labels_, &grad_logit_, &mse_grad_, &grad_pred_}) {
    *m = nn::Matrix();
  }
  for (std::vector<nn::Matrix>* v : {&xs_real_, &xs_fake_}) {
    *v = std::vector<nn::Matrix>();
  }
}

WfganForecaster::WfganForecaster(const ForecasterOptions& opts,
                                 const WfganOptions& gan)
    : NeuralForecaster(opts),
      gan_(gan),
      g_(gan.hidden, gan.use_attention, &rng_),
      d_(gan.hidden, gan.use_attention, &rng_),
      d_adam_(kLearningRate),
      steps_(gan) {}

NeuralForecaster::TrainedParams WfganForecaster::GatherTrainedParams() const {
  TrainedParams params;
  params.forecaster = g_.Params();
  params.discriminator = d_.Params();
  return params;
}

void WfganForecaster::TrainBatch(TrainedParams& params) {
  const nn::Matrix& fake = ForwardBatch(xb_);
  if (gan_.adversarial) {
    steps_.DiscriminatorStep(&d_, params.discriminator, &d_adam_, xs_, y_,
                             fake);
  }
  StepForecaster(params.forecaster,
                 steps_.GeneratorLossGrad(&d_, xs_, y_, fake));
}

void WfganForecaster::ReleaseWorkspaces() {
  xs_ = std::vector<nn::Matrix>();
  steps_.ReleaseWorkspaces();
  g_.ReleaseWorkspaces();
  d_.ReleaseWorkspaces();
}

const nn::Matrix& WfganForecaster::ForwardBatch(const nn::Matrix& x) const {
  ToTimeMajorInto(x, &xs_);
  return g_.Forward(xs_);
}

void WfganForecaster::Backward(const nn::Matrix& grad_pred) {
  g_.Backward(grad_pred);
}

StatusOr<double> WfganForecaster::DiscriminatorScore(
    const std::vector<double>& window, double value) const {
  DBAUGUR_RETURN_IF_ERROR(CheckWindow(window));
  std::vector<nn::Matrix> xs(window.size() + 1, nn::Matrix(1, 1));
  for (size_t t = 0; t < window.size(); ++t) {
    xs[t](0, 0) = scaler_.Transform(window[t]);
  }
  xs.back()(0, 0) = scaler_.Transform(value);
  return Sigmoid(d_.Forward(xs)(0, 0));
}

std::vector<nn::Param> WfganForecaster::Params() const {
  std::vector<nn::Param> params = g_.Params();
  for (auto& p : d_.Params()) params.push_back(p);
  return params;
}

}  // namespace dbaugur::models
