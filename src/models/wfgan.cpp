#include "models/wfgan.h"

#include <cmath>

#include "common/math_utils.h"
#include "models/neural_common.h"
#include "nn/loss.h"

namespace dbaugur::models {

WfganForecaster::WfganForecaster(const ForecasterOptions& opts,
                                 const WfganOptions& gan)
    : NeuralForecaster(opts),
      gan_(gan),
      g_lstm_(1, gan.hidden, &rng_),
      g_attn_(gan.hidden, kAttnDim, &rng_),
      g_head_(gan.hidden, 1, nn::Activation::kIdentity, &rng_),
      d_lstm_(1, gan.hidden, &rng_),
      d_attn_(gan.hidden, kAttnDim, &rng_),
      d_head_(gan.hidden, 1, nn::Activation::kIdentity, &rng_),
      g_adam_(kLearningRate),
      d_adam_(kLearningRate) {}

std::vector<nn::Param> WfganForecaster::GeneratorParams() const {
  std::vector<nn::Param> params = g_lstm_.Params();
  if (gan_.use_attention) {
    for (auto& p : g_attn_.Params()) params.push_back(p);
  }
  for (auto& p : g_head_.Params()) params.push_back(p);
  return params;
}

std::vector<nn::Param> WfganForecaster::DiscriminatorParams() const {
  std::vector<nn::Param> params = d_lstm_.Params();
  if (gan_.use_attention) {
    for (auto& p : d_attn_.Params()) params.push_back(p);
  }
  for (auto& p : d_head_.Params()) params.push_back(p);
  return params;
}

const nn::Matrix& WfganForecaster::GeneratorForward(
    const std::vector<nn::Matrix>& xs) const {
  const std::vector<nn::Matrix>& hs = g_lstm_.ForwardSequence(xs);
  const nn::Matrix& context =
      gan_.use_attention ? g_attn_.Forward(hs) : hs.back();
  return g_head_.Forward(context);
}

void WfganForecaster::GeneratorBackward(const nn::Matrix& grad_pred,
                                        size_t steps, size_t batch) const {
  const nn::Matrix& dcontext = g_head_.Backward(grad_pred);
  if (gan_.use_attention) {
    g_lstm_.BackwardSequence(g_attn_.Backward(dcontext));
  } else {
    LastStepGradSequence(dcontext, steps, batch, gan_.hidden, &g_grad_hs_);
    g_lstm_.BackwardSequence(g_grad_hs_);
  }
}

const nn::Matrix& WfganForecaster::DiscriminatorForward(
    const std::vector<nn::Matrix>& xs, size_t first_step) const {
  const std::vector<nn::Matrix>& hs = d_lstm_.ForwardSequence(xs, first_step);
  const nn::Matrix& context =
      gan_.use_attention ? d_attn_.Forward(hs, first_step) : hs.back();
  return d_head_.Forward(context);
}

void WfganForecaster::DiscriminatorBackward(const nn::Matrix& grad_logit,
                                            size_t steps, size_t batch) const {
  const nn::Matrix& dcontext = d_head_.Backward(grad_logit);
  if (gan_.use_attention) {
    d_lstm_.BackwardSequence(d_attn_.Backward(dcontext));
    return;
  }
  LastStepGradSequence(dcontext, steps, batch, gan_.hidden, &d_grad_hs_);
  d_lstm_.BackwardSequence(d_grad_hs_);
}

const nn::Matrix& WfganForecaster::DiscriminatorLastInputGrad(
    const nn::Matrix& grad_logit) const {
  const nn::Matrix& dcontext = d_head_.InputGrad(grad_logit);
  return d_lstm_.LastStepInputGrad(
      gan_.use_attention ? d_attn_.LastStepInputGrad(dcontext) : dcontext);
}

StatusOr<WfganEpochStats> WfganForecaster::TrainEpoch() {
  if (train_samples_.empty()) {
    return Status::FailedPrecondition("WFGAN: PrepareTraining not called");
  }
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  std::vector<nn::Param> gparams = GeneratorParams();
  std::vector<nn::Param> dparams = DiscriminatorParams();
  auto zero = [](std::vector<nn::Param>& ps) {
    for (auto& p : ps) p.grad->Fill(0.0);
  };
  WfganEpochStats stats;
  size_t batches = 0;
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &xb_);
    BatchTargetsInto(train_samples_, order, begin, count, &y_);
    ToTimeMajorInto(xb_, &xs_);

    // Generator output on xs_ whose layer caches are still intact: nothing
    // changes the generator between the D-steps' forward and the first
    // G-step, which reuses it.
    const nn::Matrix* fake = nullptr;
    if (gan_.adversarial) {
      // --- D-step (Algorithm 2, lines 5-7): fake forecasts are detached.
      fake = &GeneratorForward(xs_);
      CopySequenceWithTail(xs_, y_, &xs_real_);
      CopySequenceWithTail(xs_, *fake, &xs_fake_);
      real_labels_.Resize(count, 1);
      real_labels_.Fill(kRealLabel);
      fake_labels_.Resize(count, 1);
      fake_labels_.Fill(0.0);
      // The fake batch equals the real one before its tail, and D does not
      // change between the two passes: the fake pass starts at the tail.
      const size_t tail = xs_.size();
      zero(dparams);
      const nn::Matrix& real_logits = DiscriminatorForward(xs_real_);
      double loss_real =
          nn::BCEWithLogitsLoss(real_logits, real_labels_, &grad_real_);
      DiscriminatorBackward(grad_real_, xs_real_.size(), count);
      const nn::Matrix& fake_logits = DiscriminatorForward(xs_fake_, tail);
      double loss_fake =
          nn::BCEWithLogitsLoss(fake_logits, fake_labels_, &grad_fake_);
      DiscriminatorBackward(grad_fake_, xs_fake_.size(), count);
      nn::ClipGradNorm(dparams, kGradClip);
      d_adam_.Step(dparams);
      stats.d_loss += loss_real + loss_fake;
    }

    // --- G-steps (Algorithm 2, lines 8-10) plus the supervised MSE term.
    for (size_t s = 0; s < gan_.g_steps; ++s) {
      zero(gparams);
      if (fake == nullptr) fake = &GeneratorForward(xs_);
      grad_pred_.Resize(count, 1);
      grad_pred_.Fill(0.0);

      double mse = nn::MSELoss(*fake, y_, &mse_grad_);
      grad_pred_.AddScaled(mse_grad_, gan_.supervised_weight);
      stats.g_mse += mse;

      if (gan_.adversarial) {
        CopySequenceWithTail(xs_, *fake, &xs_fake_);
        const nn::Matrix& fake_logits = DiscriminatorForward(xs_fake_);
        double adv =
            gan_.saturating_g_loss
                ? nn::GeneratorGanLossSaturating(fake_logits, &grad_logit_)
                : nn::GeneratorGanLoss(fake_logits, &grad_logit_);
        stats.g_adv += adv;
        // Only the forecast's own input gradient feeds G; D's parameter
        // gradients are never formed here.
        grad_pred_.AddScaled(DiscriminatorLastInputGrad(grad_logit_),
                             gan_.adversarial_weight);
      }

      GeneratorBackward(grad_pred_, xs_.size(), count);
      nn::ClipGradNorm(gparams, kGradClip);
      g_adam_.Step(gparams);
      fake = nullptr;  // the step changed the generator
    }
    ++batches;
  }
  if (batches > 0) {
    // With no G-steps the sums stay 0; max(1, .) keeps them off 0/0.
    const double g_div =
        static_cast<double>(batches * std::max<size_t>(1, gan_.g_steps));
    stats.d_loss /= static_cast<double>(batches);
    stats.g_adv /= g_div;
    stats.g_mse /= g_div;
  }
  return stats;
}

void WfganForecaster::ReleaseWorkspaces() {
  for (nn::Matrix* m : {&xb_, &y_, &grad_pred_, &mse_grad_, &grad_real_,
                        &grad_fake_, &grad_logit_, &real_labels_,
                        &fake_labels_}) {
    *m = nn::Matrix();
  }
  for (std::vector<nn::Matrix>* v :
       {&xs_, &xs_real_, &xs_fake_, &g_grad_hs_, &d_grad_hs_}) {
    *v = std::vector<nn::Matrix>();
  }
  g_lstm_.ReleaseWorkspaces();
  g_attn_.ReleaseWorkspaces();
  g_head_.ReleaseWorkspaces();
  d_lstm_.ReleaseWorkspaces();
  d_attn_.ReleaseWorkspaces();
  d_head_.ReleaseWorkspaces();
}

const nn::Matrix& WfganForecaster::ForwardBatch(const nn::Matrix& x) const {
  std::vector<nn::Matrix> xs;
  ToTimeMajorInto(x, &xs);
  return GeneratorForward(xs);
}

StatusOr<double> WfganForecaster::DiscriminatorScore(
    const std::vector<double>& window, double value) const {
  DBAUGUR_RETURN_IF_ERROR(CheckWindow(window));
  std::vector<nn::Matrix> xs(window.size() + 1, nn::Matrix(1, 1));
  for (size_t t = 0; t < window.size(); ++t) {
    xs[t](0, 0) = scaler_.Transform(window[t]);
  }
  xs.back()(0, 0) = scaler_.Transform(value);
  const nn::Matrix& logit = DiscriminatorForward(xs);
  return Sigmoid(logit(0, 0));
}

std::vector<nn::Param> WfganForecaster::Params() const {
  std::vector<nn::Param> params = GeneratorParams();
  for (auto& p : DiscriminatorParams()) params.push_back(p);
  return params;
}

}  // namespace dbaugur::models
