#include "models/neural_common.h"

#include <algorithm>
#include <utility>

#include "common/binio.h"
#include "common/contracts.h"
#include "nn/loss.h"
#include "nn/serialize.h"

namespace dbaugur::models {

StatusOr<ScaledDataset> BuildScaledDataset(const std::vector<double>& series,
                                           const ForecasterOptions& opts) {
  ScaledDataset out;
  DBAUGUR_RETURN_IF_ERROR(out.scaler.Fit(series));
  std::vector<double> scaled = out.scaler.Transform(series);
  ts::WindowDatasetOptions wopts{opts.window, opts.horizon};
  auto samples = ts::MakeWindows(scaled, wopts);
  if (!samples.ok()) return samples.status();
  out.samples = std::move(samples).value();
  return out;
}

Status NeuralForecaster::Fit(const std::vector<double>& series) {
  for (size_t step = 0; step < FitSteps(); ++step) {
    DBAUGUR_RETURN_IF_ERROR(FitStep(step, series));
  }
  return Status::OK();
}

size_t NeuralForecaster::FitSteps() const {
  return std::max<size_t>(1, opts_.epochs);
}

Status NeuralForecaster::FitStep(size_t step,
                                 const std::vector<double>& series) {
  DBAUGUR_CHECK_LT(step, FitSteps(), name(), ": fit step out of range");
  if (step == 0) DBAUGUR_RETURN_IF_ERROR(PrepareTraining(series));
  if (step < opts_.epochs) DBAUGUR_RETURN_IF_ERROR(TrainEpoch());
  if (step + 1 == FitSteps()) {
    train_samples_ = std::vector<ts::WindowSample>();
    FreeWorkspaces();
    fitted_ = true;
  }
  return Status::OK();
}

Status NeuralForecaster::PrepareTraining(const std::vector<double>& series) {
  auto ds = BuildScaledDataset(series, opts_);
  if (!ds.ok()) return ds.status();
  scaler_ = ds->scaler;
  train_samples_ = std::move(ds->samples);
  return Status::OK();
}

Status NeuralForecaster::TrainEpoch() {
  if (train_samples_.empty()) {
    return Status::FailedPrecondition(name() + ": PrepareTraining not called");
  }
  std::vector<size_t> order = rng_.Permutation(train_samples_.size());
  TrainedParams params = GatherTrainedParams();
  for (size_t begin = 0; begin < order.size(); begin += opts_.batch_size) {
    size_t count = std::min(opts_.batch_size, order.size() - begin);
    BatchWindowsInto(train_samples_, order, begin, count, &xb_);
    BatchTargetsInto(train_samples_, order, begin, count, &y_);
    TrainBatch(params);
  }
  return Status::OK();
}

NeuralForecaster::TrainedParams NeuralForecaster::GatherTrainedParams() const {
  TrainedParams params;
  params.forecaster = Params();
  return params;
}

void NeuralForecaster::TrainBatch(TrainedParams& params) {
  nn::MSELoss(ForwardBatch(xb_), y_, &grad_);
  StepForecaster(params.forecaster, grad_);
}

void NeuralForecaster::StepForecaster(std::vector<nn::Param>& params,
                                      const nn::Matrix& grad_pred) {
  ZeroGrads(params);
  Backward(grad_pred);
  nn::ClipGradNorm(params, kGradClip);
  adam_.Step(params);
}

void NeuralForecaster::FreeWorkspaces() {
  for (nn::Matrix* m : {&xb_, &y_, &grad_}) *m = nn::Matrix();
  ReleaseWorkspaces();
}

void ZeroGrads(const std::vector<nn::Param>& params) {
  for (const nn::Param& p : params) p.grad->Fill(0.0);
}

int64_t ScalarCount(const std::vector<nn::Param>& params) {
  int64_t n = 0;
  for (const nn::Param& p : params) n += static_cast<int64_t>(p.value->size());
  return n;
}

Status NeuralForecaster::CheckWindow(const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition(name() + ": Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument(name() + ": window size mismatch");
  }
  return Status::OK();
}

StatusOr<double> NeuralForecaster::Predict(
    const std::vector<double>& window) const {
  DBAUGUR_RETURN_IF_ERROR(CheckWindow(window));
  nn::Matrix x(1, window.size());
  for (size_t j = 0; j < window.size(); ++j) {
    x(0, j) = scaler_.Transform(window[j]);
  }
  return scaler_.Inverse(ForwardBatch(x)(0, 0));
}

int64_t NeuralForecaster::StorageBytes() const {
  return nn::StorageBytes(Params());
}

int64_t NeuralForecaster::ParameterCount() const {
  return ScalarCount(Params());
}

namespace {
// Distinct from the nn parameter magic so a params blob handed to the model
// state path (or vice versa) is rejected, not misparsed.
constexpr uint32_t kModelStateMagic = 0xDBA65AE1;
// A model has one scaler. The blob still records the count, so its bytes
// stay those of the checkpoints already written.
constexpr uint32_t kScalerCount = 1;

// Magic, scaler count, the scaler's state, then Params() as a lossless
// float64 nn::SerializeParamsF64 blob.
std::vector<uint8_t> SerializeNeuralState(const ts::MinMaxScaler& scaler,
                                          const std::vector<nn::Param>& params) {
  BufWriter w;
  w.U32(kModelStateMagic);
  w.U32(kScalerCount);
  w.U8(scaler.fitted() ? 1 : 0);
  w.F64(scaler.min());
  w.F64(scaler.max());
  w.Bytes(nn::SerializeParamsF64(params));
  return w.Take();
}

// Restores a SerializeNeuralState blob into a model of the saving model's
// layout; rejects a corrupt, truncated or mismatched blob with
// InvalidArgument before the scaler or any parameter changes.
Status DeserializeNeuralState(const std::vector<uint8_t>& buffer,
                              ts::MinMaxScaler* scaler,
                              std::vector<nn::Param> params) {
  BufReader r(buffer);
  uint32_t magic = 0, nscalers = 0;
  if (!r.U32(&magic) || magic != kModelStateMagic) {
    return Status::InvalidArgument("bad magic in model state buffer");
  }
  if (!r.U32(&nscalers) || nscalers != kScalerCount) {
    return Status::InvalidArgument("model state scaler count mismatch");
  }
  uint8_t fitted = 0;
  double lo = 0.0, hi = 0.0;
  if (!r.U8(&fitted) || !r.F64(&lo) || !r.F64(&hi)) {
    return Status::InvalidArgument("truncated model state scaler section");
  }
  if (fitted != 0 && !(lo <= hi)) {
    return Status::InvalidArgument("model state scaler range invalid");
  }
  std::vector<uint8_t> param_blob;
  if (!r.Bytes(&param_blob)) {
    return Status::InvalidArgument("truncated model state parameter section");
  }
  // Reuses nn/serialize's magic / count / shape / truncation rejection,
  // which leaves every parameter untouched unless the whole blob is valid.
  DBAUGUR_RETURN_IF_ERROR(nn::DeserializeParams(param_blob, params));
  // The scaler is only touched once every fallible step has passed.
  if (fitted != 0) return scaler->Restore(lo, hi);
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<uint8_t>> NeuralForecaster::SaveState() const {
  return SerializeNeuralState(scaler_, Params());
}

Status NeuralForecaster::LoadState(const std::vector<uint8_t>& buffer) {
  DBAUGUR_RETURN_IF_ERROR(DeserializeNeuralState(buffer, &scaler_, Params()));
  fitted_ = true;
  return Status::OK();
}

void BatchWindowsInto(const std::vector<ts::WindowSample>& samples,
                      const std::vector<size_t>& idx, size_t begin,
                      size_t count, nn::Matrix* out) {
  size_t t = samples.empty() ? 0 : samples[0].window.size();
  out->Resize(count, t);
  for (size_t r = 0; r < count; ++r) {
    const auto& w = samples[idx[begin + r]].window;
    double* row = out->row(r);
    for (size_t j = 0; j < t; ++j) row[j] = w[j];
  }
}

void BatchTargetsInto(const std::vector<ts::WindowSample>& samples,
                      const std::vector<size_t>& idx, size_t begin,
                      size_t count, nn::Matrix* out) {
  out->Resize(count, 1);
  for (size_t r = 0; r < count; ++r) {
    (*out)(r, 0) = samples[idx[begin + r]].target;
  }
}

void ToTimeMajorInto(const nn::Matrix& batch, std::vector<nn::Matrix>* xs) {
  xs->resize(batch.cols());
  for (size_t t = 0; t < batch.cols(); ++t) {
    nn::Matrix& x = (*xs)[t];
    x.Resize(batch.rows(), 1);
    for (size_t r = 0; r < batch.rows(); ++r) x(r, 0) = batch(r, t);
  }
}

void ToTensor3Into(const nn::Matrix& batch, nn::Tensor3* out) {
  out->Resize(batch.rows(), 1, batch.cols());
  for (size_t r = 0; r < batch.rows(); ++r) {
    double* lane = out->lane(r, 0);
    for (size_t j = 0; j < batch.cols(); ++j) lane[j] = batch(r, j);
  }
}

void CopySequenceWithTail(const std::vector<nn::Matrix>& xs,
                          const nn::Matrix& tail,
                          std::vector<nn::Matrix>* dst) {
  dst->resize(xs.size() + 1);
  for (size_t t = 0; t < xs.size(); ++t) (*dst)[t] = xs[t];
  dst->back() = tail;
}

void LastStepGradSequence(const nn::Matrix& dlast, size_t steps,
                          std::vector<nn::Matrix>* dst) {
  dst->resize(steps);
  for (size_t t = 0; t + 1 < steps; ++t) {
    (*dst)[t].Resize(dlast.rows(), dlast.cols());
    (*dst)[t].Fill(0.0);
  }
  dst->back() = dlast;
}

}  // namespace dbaugur::models
