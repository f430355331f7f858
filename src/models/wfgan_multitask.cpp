#include "models/wfgan_multitask.h"

#include <algorithm>

#include "models/neural_common.h"
#include "nn/loss.h"

namespace dbaugur::models {

MultiTaskWfgan::MultiTaskWfgan(const ForecasterOptions& opts,
                               const WfganOptions& gan)
    : opts_(opts),
      gan_(gan),
      rng_(opts.seed),
      shared_lstm_(1, gan.hidden, &rng_),
      g_adam_(kLearningRate),
      d_adams_{nn::Adam(kLearningRate), nn::Adam(kLearningRate)} {
  for (auto& t : tasks_) {
    t.attn = std::make_unique<nn::TemporalAttention>(gan.hidden, kAttnDim,
                                                     &rng_);
    t.head = std::make_unique<nn::Dense>(gan.hidden, 1,
                                         nn::Activation::kIdentity, &rng_);
    t.d_lstm = std::make_unique<nn::LSTM>(1, gan.hidden, &rng_);
    t.d_attn = std::make_unique<nn::TemporalAttention>(gan.hidden,
                                                       kAttnDim, &rng_);
    t.d_head = std::make_unique<nn::Dense>(gan.hidden, 1,
                                           nn::Activation::kIdentity, &rng_);
  }
}

const nn::Matrix& MultiTaskWfgan::GenForward(
    TaskNet& t, const std::vector<nn::Matrix>& xs) const {
  const std::vector<nn::Matrix>& hs = shared_lstm_.ForwardSequence(xs);
  const nn::Matrix& context =
      gan_.use_attention ? t.attn->Forward(hs) : hs.back();
  return t.head->Forward(context);
}

void MultiTaskWfgan::GenBackward(TaskNet& t, const nn::Matrix& grad_pred,
                                 size_t steps, size_t batch) const {
  const nn::Matrix& dcontext = t.head->Backward(grad_pred);
  if (gan_.use_attention) {
    shared_lstm_.BackwardSequence(t.attn->Backward(dcontext));
  } else {
    LastStepGradSequence(dcontext, steps, batch, gan_.hidden, &grad_hs_);
    shared_lstm_.BackwardSequence(grad_hs_);
  }
}

const nn::Matrix& MultiTaskWfgan::DiscForward(
    TaskNet& t, const std::vector<nn::Matrix>& xs) const {
  const std::vector<nn::Matrix>& hs = t.d_lstm->ForwardSequence(xs);
  const nn::Matrix& context =
      gan_.use_attention ? t.d_attn->Forward(hs) : hs.back();
  return t.d_head->Forward(context);
}

const std::vector<nn::Matrix>& MultiTaskWfgan::DiscBackward(
    TaskNet& t, const nn::Matrix& grad, size_t steps, size_t batch) const {
  const nn::Matrix& dcontext = t.d_head->Backward(grad);
  if (gan_.use_attention) {
    return t.d_lstm->BackwardSequence(t.d_attn->Backward(dcontext));
  }
  LastStepGradSequence(dcontext, steps, batch, gan_.hidden, &grad_hs_);
  return t.d_lstm->BackwardSequence(grad_hs_);
}

std::vector<nn::Param> MultiTaskWfgan::TaskGenParams(TaskNet& t) const {
  std::vector<nn::Param> params;
  if (gan_.use_attention) {
    for (auto& p : t.attn->Params()) params.push_back(p);
  }
  for (auto& p : t.head->Params()) params.push_back(p);
  return params;
}

std::vector<nn::Param> MultiTaskWfgan::DiscParams(TaskNet& t) const {
  std::vector<nn::Param> params = t.d_lstm->Params();
  if (gan_.use_attention) {
    for (auto& p : t.d_attn->Params()) params.push_back(p);
  }
  for (auto& p : t.d_head->Params()) params.push_back(p);
  return params;
}

Status MultiTaskWfgan::Fit(const std::vector<double>& query_series,
                           const std::vector<double>& resource_series) {
  {
    auto ds = BuildScaledDataset(query_series, opts_);
    if (!ds.ok()) return ds.status();
    tasks_[0].scaler = ds->scaler;
    tasks_[0].samples = std::move(ds->samples);
  }
  {
    auto ds = BuildScaledDataset(resource_series, opts_);
    if (!ds.ok()) return ds.status();
    tasks_[1].scaler = ds->scaler;
    tasks_[1].samples = std::move(ds->samples);
  }
  for (size_t e = 0; e < opts_.epochs; ++e) {
    DBAUGUR_RETURN_IF_ERROR(TrainEpoch());
  }
  fitted_ = true;
  return Status::OK();
}

Status MultiTaskWfgan::TrainEpoch() {
  auto zero = [](std::vector<nn::Param> ps) {
    for (auto& p : ps) p.grad->Fill(0.0);
  };
  // Combined generator parameter set: shared trunk + both task heads.
  std::vector<nn::Param> gparams = shared_lstm_.Params();
  for (auto& t : tasks_) {
    for (auto& p : TaskGenParams(t)) gparams.push_back(p);
  }

  std::array<std::vector<size_t>, 2> orders = {
      rng_.Permutation(tasks_[0].samples.size()),
      rng_.Permutation(tasks_[1].samples.size())};
  size_t batches = std::min(orders[0].size(), orders[1].size()) /
                   std::max<size_t>(1, opts_.batch_size);
  if (batches == 0) return Status::InvalidArgument("MTL: not enough samples");

  for (size_t bidx = 0; bidx < batches; ++bidx) {
    size_t begin = bidx * opts_.batch_size;
    // Per-task minibatch tensors.
    for (size_t ti = 0; ti < 2; ++ti) {
      size_t count =
          std::min(opts_.batch_size, orders[ti].size() - begin);
      BatchWindowsInto(tasks_[ti].samples, orders[ti], begin, count, &xb_);
      BatchTargetsInto(tasks_[ti].samples, orders[ti], begin, count, &ys_[ti]);
      ToTimeMajorInto(xb_, &xs_[ti]);
    }

    // D-steps per task with detached fakes.
    if (gan_.adversarial) {
      for (size_t ti = 0; ti < 2; ++ti) {
        TaskNet& t = tasks_[ti];
        size_t count = ys_[ti].rows();
        const nn::Matrix& fake = GenForward(t, xs_[ti]);
        CopySequenceWithTail(xs_[ti], ys_[ti], &xs_real_);
        CopySequenceWithTail(xs_[ti], fake, &xs_fake_);
        std::vector<nn::Param> dparams = DiscParams(t);
        zero(dparams);
        real_labels_.Resize(count, 1);
        real_labels_.Fill(kRealLabel);
        fake_labels_.Resize(count, 1);
        fake_labels_.Fill(0.0);
        nn::BCEWithLogitsLoss(DiscForward(t, xs_real_), real_labels_,
                              &grad_real_);
        DiscBackward(t, grad_real_, xs_real_.size(), count);
        nn::BCEWithLogitsLoss(DiscForward(t, xs_fake_), fake_labels_,
                              &grad_fake_);
        DiscBackward(t, grad_fake_, xs_fake_.size(), count);
        nn::ClipGradNorm(dparams, kGradClip);
        d_adams_[ti].Step(dparams);
      }
    }

    // Joint G-step: both tasks' gradients accumulate into the shared trunk
    // before one optimizer update (multi-task learning).
    zero(gparams);
    for (size_t ti = 0; ti < 2; ++ti) {
      TaskNet& t = tasks_[ti];
      size_t count = ys_[ti].rows();
      const nn::Matrix& fake = GenForward(t, xs_[ti]);
      grad_pred_.Resize(count, 1);
      grad_pred_.Fill(0.0);
      nn::MSELoss(fake, ys_[ti], &mse_grad_);
      grad_pred_.AddScaled(mse_grad_, gan_.supervised_weight);
      if (gan_.adversarial) {
        CopySequenceWithTail(xs_[ti], fake, &xs_fake_);
        std::vector<nn::Param> dparams = DiscParams(t);
        const nn::Matrix& fake_logits = DiscForward(t, xs_fake_);
        if (gan_.saturating_g_loss) {
          nn::GeneratorGanLossSaturating(fake_logits, &grad_logit_);
        } else {
          nn::GeneratorGanLoss(fake_logits, &grad_logit_);
        }
        const std::vector<nn::Matrix>& dxs =
            DiscBackward(t, grad_logit_, xs_fake_.size(), count);
        grad_pred_.AddScaled(dxs.back(), gan_.adversarial_weight);
        zero(dparams);  // discard D grads from the G pass
      }
      GenBackward(t, grad_pred_, xs_[ti].size(), count);
    }
    nn::ClipGradNorm(gparams, kGradClip);
    g_adam_.Step(gparams);
  }
  return Status::OK();
}

StatusOr<double> MultiTaskWfgan::Predict(
    WorkloadTask task, const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("MTL-WFGAN: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("MTL-WFGAN: window size mismatch");
  }
  TaskNet& t = tasks_[static_cast<size_t>(task)];
  std::vector<nn::Matrix> xs(window.size(), nn::Matrix(1, 1));
  for (size_t i = 0; i < window.size(); ++i) {
    xs[i](0, 0) = t.scaler.Transform(window[i]);
  }
  const nn::Matrix& pred = GenForward(t, xs);
  return t.scaler.Inverse(pred(0, 0));
}

int64_t MultiTaskWfgan::ParameterCount() const {
  int64_t n = SharedParameterCount();
  for (auto& t : tasks_) {
    for (auto& p : TaskGenParams(const_cast<TaskNet&>(t))) {
      n += static_cast<int64_t>(p.value->size());
    }
    for (auto& p : DiscParams(const_cast<TaskNet&>(t))) {
      n += static_cast<int64_t>(p.value->size());
    }
  }
  return n;
}

int64_t MultiTaskWfgan::SharedParameterCount() const {
  int64_t n = 0;
  for (auto& p : shared_lstm_.Params()) {
    n += static_cast<int64_t>(p.value->size());
  }
  return n;
}

}  // namespace dbaugur::models
