#include "models/tcn.h"

namespace dbaugur::models {

namespace {
// Taps of every block's dilated causal convolutions.
constexpr size_t kKernel = 2;
}  // namespace

TcnForecaster::TcnForecaster(const ForecasterOptions& opts,
                             const TcnOptions& tcn)
    : NeuralForecaster(opts),
      tcn_opts_(tcn),
      head_(tcn.channels, 1, nn::Activation::kIdentity, &rng_) {
  size_t in_ch = 1;
  for (size_t d : tcn_opts_.dilations) {
    blocks_.push_back(std::make_unique<nn::TCNBlock>(
        in_ch, tcn_opts_.channels, kKernel, d, &rng_));
    in_ch = tcn_opts_.channels;
  }
  // The head reads only the last step of the last block. Walking that step's
  // dependency cone back through the blocks leaves each conv computing just
  // the steps a later layer reads (Paine et al., "Fast Wavenet Generation").
  if (opts_.window > 0) {
    std::vector<size_t> steps = {opts_.window - 1};
    for (size_t b = blocks_.size(); b-- > 0;) {
      steps = blocks_[b]->RestrictOutputSteps(std::move(steps));
    }
  }
}

std::vector<nn::Param> TcnForecaster::Params() const {
  std::vector<nn::Param> params;
  for (auto& b : blocks_) {
    for (auto& p : b->Params()) params.push_back(p);
  }
  for (auto& p : head_.Params()) params.push_back(p);
  return params;
}

void TcnForecaster::ReleaseWorkspaces() {
  feats_ = nn::Matrix();
  for (nn::Tensor3* t : {&t_in_, &dt_}) *t = nn::Tensor3();
  for (auto& b : blocks_) b->ReleaseWorkspaces();
  head_.ReleaseWorkspaces();
}

const nn::Matrix& TcnForecaster::ForwardBatch(const nn::Matrix& xb) const {
  ToTensor3Into(xb, &t_in_);
  // Chain block workspaces by reference; each block owns its output.
  const nn::Tensor3* t = &t_in_;
  for (auto& b : blocks_) t = &b->Forward(*t);
  // Head reads the final time step across channels.
  size_t last = t->time() - 1;
  feats_.Resize(xb.rows(), tcn_opts_.channels);
  for (size_t r = 0; r < xb.rows(); ++r) {
    for (size_t c = 0; c < tcn_opts_.channels; ++c) {
      feats_(r, c) = (*t)(r, c, last);
    }
  }
  return head_.Forward(feats_);
}

void TcnForecaster::Backward(const nn::Matrix& grad_pred) {
  // Only the last step fed the head, so only it gets a gradient.
  const nn::Matrix& dfeats = head_.Backward(grad_pred);
  const size_t count = grad_pred.rows(), last = t_in_.time() - 1;
  dt_.Resize(count, tcn_opts_.channels, last + 1);
  dt_.Fill(0.0);
  for (size_t r = 0; r < count; ++r) {
    for (size_t c = 0; c < tcn_opts_.channels; ++c) {
      dt_(r, c, last) = dfeats(r, c);
    }
  }
  const nn::Tensor3* dt = &dt_;
  for (size_t b = blocks_.size(); b-- > 0;) dt = &blocks_[b]->Backward(*dt);
}

}  // namespace dbaugur::models
