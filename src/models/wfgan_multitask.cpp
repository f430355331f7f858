#include "models/wfgan_multitask.h"

#include <algorithm>
#include <utility>

#include "models/neural_common.h"

namespace dbaugur::models {

MultiTaskWfgan::MultiTaskWfgan(const ForecasterOptions& opts,
                               const WfganOptions& gan)
    : opts_(opts),
      gan_(gan),
      rng_(opts.seed),
      trunk_(std::make_unique<nn::LSTM>(1, gan.hidden, &rng_)),
      tasks_{Task(gan, &rng_, trunk_.get()), Task(gan, &rng_, trunk_.get())},
      g_adam_(kLearningRate),
      steps_(gan) {}

Status MultiTaskWfgan::Fit(const std::vector<double>& query_series,
                           const std::vector<double>& resource_series) {
  // From here on a scaler or a weight may change: a failed refit must not
  // leave Predict answering with the new scaler over the old weights.
  fitted_ = false;
  const std::vector<double>* series[2] = {&query_series, &resource_series};
  for (size_t ti = 0; ti < 2; ++ti) {
    auto ds = BuildScaledDataset(*series[ti], opts_);
    if (!ds.ok()) return ds.status();
    tasks_[ti].scaler = ds->scaler;
    tasks_[ti].samples = std::move(ds->samples);
  }
  for (size_t e = 0; e < opts_.epochs; ++e) {
    DBAUGUR_RETURN_IF_ERROR(TrainEpoch());
  }
  fitted_ = true;
  return Status::OK();
}

Status MultiTaskWfgan::TrainEpoch() {
  // Combined generator parameter set: shared trunk + both task towers.
  std::vector<nn::Param> gparams = trunk_->Params();
  std::array<std::vector<nn::Param>, 2> dparams;
  for (size_t ti = 0; ti < 2; ++ti) {
    for (auto& p : tasks_[ti].gen.Params()) gparams.push_back(p);
    dparams[ti] = tasks_[ti].disc.Params();
  }

  std::array<std::vector<size_t>, 2> orders = {
      rng_.Permutation(tasks_[0].samples.size()),
      rng_.Permutation(tasks_[1].samples.size())};
  size_t batches = std::min(orders[0].size(), orders[1].size()) /
                   std::max<size_t>(1, opts_.batch_size);
  if (batches == 0) return Status::InvalidArgument("MTL: not enough samples");

  for (size_t bidx = 0; bidx < batches; ++bidx) {
    size_t begin = bidx * opts_.batch_size;
    for (size_t ti = 0; ti < 2; ++ti) {
      Task& t = tasks_[ti];
      size_t count = std::min(opts_.batch_size, orders[ti].size() - begin);
      BatchWindowsInto(t.samples, orders[ti], begin, count, &xb_);
      BatchTargetsInto(t.samples, orders[ti], begin, count, &t.y);
      ToTimeMajorInto(xb_, &t.xs);
    }
    if (gan_.adversarial) {
      for (size_t ti = 0; ti < 2; ++ti) {
        Task& t = tasks_[ti];
        steps_.DiscriminatorStep(&t.disc, dparams[ti], &t.d_adam, t.xs, t.y,
                                 t.gen.Forward(t.xs));
      }
    }
    // Joint G-step. Each task's pass runs anew: the other task's pass
    // overwrote the trunk's caches since.
    ZeroGrads(gparams);
    for (Task& t : tasks_) {
      const nn::Matrix& fake = t.gen.Forward(t.xs);
      t.gen.Backward(steps_.GeneratorLossGrad(&t.disc, t.xs, t.y, fake));
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
  Task& t = tasks_[static_cast<size_t>(task)];
  std::vector<nn::Matrix> xs(window.size(), nn::Matrix(1, 1));
  for (size_t i = 0; i < window.size(); ++i) {
    xs[i](0, 0) = t.scaler.Transform(window[i]);
  }
  return t.scaler.Inverse(t.gen.Forward(xs)(0, 0));
}

int64_t MultiTaskWfgan::ParameterCount() const {
  int64_t n = SharedParameterCount();
  for (Task& t : tasks_) {
    n += ScalarCount(t.gen.Params()) + ScalarCount(t.disc.Params());
  }
  return n;
}

int64_t MultiTaskWfgan::SharedParameterCount() const {
  return ScalarCount(trunk_->Params());
}

}  // namespace dbaugur::models
