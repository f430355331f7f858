#include "nn/lstm.h"

#include <cmath>
#include <utility>

#include "common/contracts.h"
#include "nn/init.h"
#include "nn/lstm_kernels.h"

namespace dbaugur::nn {

LSTM::LSTM(size_t input_size, size_t hidden_size, Rng* rng)
    : input_(input_size),
      hidden_(hidden_size),
      wx_(input_size, 4 * hidden_size),
      wh_(hidden_size, 4 * hidden_size),
      b_(1, 4 * hidden_size),
      dwx_(input_size, 4 * hidden_size),
      dwh_(hidden_size, 4 * hidden_size),
      db_(1, 4 * hidden_size) {
  DBAUGUR_CHECK(input_size > 0 && hidden_size > 0,
                "LSTM needs positive dims, got input=", input_size,
                " hidden=", hidden_size);
  XavierInit(&wx_, rng);
  XavierInit(&wh_, rng);
  // Forget-gate bias starts at 1 so early training retains state.
  for (size_t j = hidden_; j < 2 * hidden_; ++j) b_(0, j) = 1.0;
}

const std::vector<Matrix>& LSTM::ForwardSequence(
    const std::vector<Matrix>& xs, size_t first_step) {
  const size_t steps = xs.size();
  if (first_step > 0) {
    DBAUGUR_CHECK(steps == steps_ && first_step <= steps,
                  "LSTM::ForwardSequence reuses steps [0, ", first_step,
                  ") of the cached pass, which has ", steps_,
                  " steps; this one has ", steps);
  }
  steps_ = steps;
  hs_.resize(steps);
  if (cache_.size() < steps) cache_.resize(steps);
  if (steps == 0) return hs_;
  const size_t batch = xs[0].rows();
  // Contracts hoisted out of the step loop: validate the whole sequence once,
  // then run the hot loop contract-free.
  for (const Matrix& x : xs) {
    DBAUGUR_CHECK_EQ(x.cols(), input_, "LSTM::ForwardSequence step width");
    DBAUGUR_CHECK_EQ(x.rows(), batch,
                     "LSTM::ForwardSequence inconsistent batch size");
  }
  if (first_step > 0) {
    DBAUGUR_CHECK_EQ(zeros_.rows(), batch,
                     "LSTM::ForwardSequence batch differs from the cached "
                     "pass it reuses");
    for (size_t t = 0; t < first_step; ++t) {
      DBAUGUR_DCHECK(xs[t].BitwiseEqual(cache_[t].x),
                     "LSTM::ForwardSequence reused step ", t,
                     " differs from the cached pass");
    }
  } else {
    zeros_.Resize(batch, hidden_);
    zeros_.Fill(0.0);
  }
  for (size_t t = first_step; t < steps; ++t) {
    StepCache& sc = cache_[t];
    const Matrix& h_prev = t == 0 ? zeros_ : hs_[t - 1];
    const Matrix& c_prev = t == 0 ? zeros_ : cache_[t - 1].c;
    sc.x = xs[t];
    // Fused gate pre-activation: z = x Wx + h_prev Wh + b, one workspace.
    z_.MatMulInto(sc.x, wx_);
    z_.AddMatMul(h_prev, wh_);
    z_.AddRowVector(b_);
    sc.i.Resize(batch, hidden_);
    sc.f.Resize(batch, hidden_);
    sc.g.Resize(batch, hidden_);
    sc.o.Resize(batch, hidden_);
    sc.c.Resize(batch, hidden_);
    sc.tanh_c.Resize(batch, hidden_);
    hs_[t].Resize(batch, hidden_);
    // Fused element-wise gate pass, runtime-dispatched per SIMD tier.
    LstmGatesForward(batch, hidden_, z_.data(), c_prev.data(), sc.i.data(),
                     sc.f.data(), sc.g.data(), sc.o.data(), sc.c.data(),
                     sc.tanh_c.data(), hs_[t].data());
  }
  return hs_;
}

void LSTM::ResetCarriedGrads(size_t batch) {
  dh_next_.Resize(batch, hidden_);
  dh_next_.Fill(0.0);
  dc_next_.Resize(batch, hidden_);
  dc_next_.Fill(0.0);
  dc_prev_.Resize(batch, hidden_);
  dz_.Resize(batch, 4 * hidden_);
}

void LSTM::StepGateGrads(size_t t, const Matrix& grad_h) {
  const StepCache& sc = cache_[t];
  const Matrix& c_prev = t == 0 ? zeros_ : cache_[t - 1].c;
  dh_ = grad_h;
  dh_.Add(dh_next_);
  // All element-wise gate gradients fuse into one pass producing dz and the
  // carried cell gradient; the per-gate intermediates never materialise.
  LstmGatesBackward(sc.x.rows(), hidden_, dh_.data(), dc_next_.data(),
                    sc.tanh_c.data(), sc.i.data(), sc.f.data(), sc.g.data(),
                    sc.o.data(), c_prev.data(), dz_.data(), dc_prev_.data());
}

const std::vector<Matrix>& LSTM::BackwardSequence(
    const std::vector<Matrix>& grad_hs) {
  const size_t steps = steps_;
  DBAUGUR_CHECK_EQ(grad_hs.size(), steps,
                   "LSTM::BackwardSequence gradient count does not match the "
                   "cached forward pass");
  dxs_.resize(steps);
  if (steps == 0) return dxs_;
  const size_t batch = cache_[0].x.rows();
  for (const Matrix& g : grad_hs) {
    DBAUGUR_CHECK(g.rows() == batch && g.cols() == hidden_,
                  "LSTM::BackwardSequence gradient shape ", g.rows(), "x",
                  g.cols(), " does not match hidden states ", batch, "x",
                  hidden_);
  }
  ResetCarriedGrads(batch);
  for (size_t t = steps; t-- > 0;) {
    StepGateGrads(t, grad_hs[t]);
    const Matrix& h_prev = t == 0 ? zeros_ : hs_[t - 1];
    dwx_.AddTransposeMatMul(cache_[t].x, dz_);
    dwh_.AddTransposeMatMul(h_prev, dz_);
    db_.AddColSumOf(dz_);
    dxs_[t].MatMulTransposeInto(dz_, wx_);
    dh_next_.MatMulTransposeInto(dz_, wh_);
    std::swap(dc_next_, dc_prev_);
  }
  return dxs_;
}

const Matrix& LSTM::LastStepInputGrad(const Matrix& grad_h) {
  DBAUGUR_CHECK(steps_ > 0,
                "LSTM::LastStepInputGrad needs a cached forward pass");
  const size_t last = steps_ - 1;
  const size_t batch = cache_[last].x.rows();
  DBAUGUR_CHECK(grad_h.rows() == batch && grad_h.cols() == hidden_,
                "LSTM::LastStepInputGrad gradient shape ", grad_h.rows(), "x",
                grad_h.cols(), " does not match hidden states ", batch, "x",
                hidden_);
  ResetCarriedGrads(batch);
  StepGateGrads(last, grad_h);
  dxs_.resize(steps_);
  dxs_[last].MatMulTransposeInto(dz_, wx_);
  return dxs_[last];
}

std::vector<Param> LSTM::Params() {
  return {{&wx_, &dwx_, "lstm.wx"},
          {&wh_, &dwh_, "lstm.wh"},
          {&b_, &db_, "lstm.b"}};
}

void LSTM::ReleaseWorkspaces() {
  cache_ = std::vector<StepCache>();
  steps_ = 0;
  hs_ = std::vector<Matrix>();
  dxs_ = std::vector<Matrix>();
  for (Matrix* m :
       {&zeros_, &z_, &dh_, &dz_, &dh_next_, &dc_next_, &dc_prev_}) {
    *m = Matrix();
  }
}

void LSTM::ZeroGrad() {
  dwx_.Fill(0.0);
  dwh_.Fill(0.0);
  db_.Fill(0.0);
}

}  // namespace dbaugur::nn
