#include "nn/attention.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_utils.h"
#include "nn/init.h"

namespace dbaugur::nn {

TemporalAttention::TemporalAttention(size_t hidden, size_t attn_dim, Rng* rng)
    : hidden_(hidden),
      wa_(hidden, attn_dim),
      ba_(1, attn_dim),
      v_(attn_dim, 1),
      dwa_(hidden, attn_dim),
      dba_(1, attn_dim),
      dv_(attn_dim, 1) {
  DBAUGUR_CHECK(hidden > 0 && attn_dim > 0,
                "TemporalAttention needs positive dims, got hidden=", hidden,
                " attn=", attn_dim);
  XavierInit(&wa_, rng);
  XavierInit(&v_, rng);
}

const Matrix& TemporalAttention::Forward(const std::vector<Matrix>& hs,
                                         size_t first_step) {
  size_t steps = hs.size();
  size_t batch = steps == 0 ? 0 : hs[0].rows();
  // Contracts hoisted out of the step loop.
  for (const Matrix& h : hs) {
    DBAUGUR_CHECK_EQ(h.cols(), hidden_, "TemporalAttention::Forward step width");
    DBAUGUR_CHECK_EQ(h.rows(), batch,
                     "TemporalAttention::Forward inconsistent batch size");
  }
  if (first_step > 0) {
    DBAUGUR_CHECK(steps == hs_.size() && first_step <= steps &&
                      batch == scores_.rows(),
                  "TemporalAttention::Forward reuses steps [0, ", first_step,
                  ") of the cached pass, which has ", hs_.size(),
                  " steps; this one has ", steps);
    for (size_t t = 0; t < first_step; ++t) {
      DBAUGUR_DCHECK(hs[t].BitwiseEqual(hs_[t]),
                     "TemporalAttention::Forward reused step ", t,
                     " differs from the cached pass");
    }
  }
  hs_.resize(steps);
  u_.resize(steps);
  scores_.Resize(batch, steps);  // same shape when reusing: scores kept
  for (size_t t = first_step; t < steps; ++t) {
    hs_[t] = hs[t];
    Matrix& u = u_[t];
    u.MatMulInto(hs[t], wa_);
    u.AddRowVector(ba_);
    double* ud = u.data();
    for (size_t i = 0, n = u.size(); i < n; ++i) ud[i] = std::tanh(ud[i]);
    s_.MatMulInto(u, v_);  // [batch, 1]
    for (size_t r = 0; r < batch; ++r) scores_(r, t) = s_(r, 0);
  }
  // Row-wise softmax over time.
  alpha_.Resize(batch, steps);
  for (size_t r = 0; r < batch; ++r) {
    double mx = -1e300;
    for (size_t t = 0; t < steps; ++t) mx = std::max(mx, scores_(r, t));
    double sum = 0.0;
    for (size_t t = 0; t < steps; ++t) {
      alpha_(r, t) = std::exp(scores_(r, t) - mx);
      sum += alpha_(r, t);
    }
    for (size_t t = 0; t < steps; ++t) alpha_(r, t) /= sum;
  }
  context_.Resize(batch, hidden_);
  context_.Fill(0.0);
  for (size_t t = 0; t < steps; ++t) {
    for (size_t r = 0; r < batch; ++r) {
      double a = alpha_(r, t);
      const double* hrow = hs[t].row(r);
      double* crow = context_.row(r);
      for (size_t j = 0; j < hidden_; ++j) crow[j] += a * hrow[j];
    }
  }
  return context_;
}

void TemporalAttention::ScoreGrads(const Matrix& grad_context,
                                   size_t first_step) {
  const size_t steps = hs_.size();
  const size_t batch = steps == 0 ? 0 : hs_[0].rows();
  if (steps > 0) {
    DBAUGUR_CHECK(grad_context.rows() == batch &&
                      grad_context.cols() == hidden_,
                  "TemporalAttention::Backward gradient shape ",
                  grad_context.rows(), "x", grad_context.cols(),
                  " does not match context ", batch, "x", hidden_);
  }
  dhs_.resize(steps);
  // dL/dalpha_{r,t} = grad_context_r . h_t_r ; context term dh = alpha * dc.
  dalpha_.Resize(batch, steps);
  for (size_t t = 0; t < steps; ++t) {
    const bool context_term = t >= first_step;
    if (context_term) dhs_[t].Resize(batch, hidden_);
    for (size_t r = 0; r < batch; ++r) {
      const double* hrow = hs_[t].row(r);
      const double* crow = grad_context.row(r);
      double dot = 0.0;
      for (size_t j = 0; j < hidden_; ++j) dot += crow[j] * hrow[j];
      dalpha_(r, t) = dot;
      if (context_term) {
        const double a = alpha_(r, t);
        double* drow = dhs_[t].row(r);
        for (size_t j = 0; j < hidden_; ++j) drow[j] = a * crow[j];
      }
    }
  }
  // Softmax backward: ds_t = alpha_t * (dalpha_t - sum_k alpha_k dalpha_k).
  dscore_.Resize(batch, steps);
  for (size_t r = 0; r < batch; ++r) {
    double dot = 0.0;
    for (size_t t = 0; t < steps; ++t) dot += alpha_(r, t) * dalpha_(r, t);
    for (size_t t = 0; t < steps; ++t) {
      dscore_(r, t) = alpha_(r, t) * (dalpha_(r, t) - dot);
    }
  }
}

void TemporalAttention::ProjectionGrad(size_t t, bool param_grads) {
  // Through s_t = u_t . v and u_t = tanh(h_t Wa + ba).
  const size_t batch = hs_[t].rows();
  s_.Resize(batch, 1);
  for (size_t r = 0; r < batch; ++r) s_(r, 0) = dscore_(r, t);
  // dv += u_t^T ds ; du = ds v^T.
  if (param_grads) dv_.AddTransposeMatMul(u_[t], s_);
  du_.MatMulTransposeInto(s_, v_);  // [batch, attn]
  // Through tanh.
  const double* ud = u_[t].data();
  double* dud = du_.data();
  for (size_t i = 0, n = du_.size(); i < n; ++i) {
    dud[i] *= 1.0 - ud[i] * ud[i];
  }
  if (param_grads) {
    dwa_.AddTransposeMatMul(hs_[t], du_);
    dba_.AddColSumOf(du_);
  }
  dhs_[t].AddMatMulTranspose(du_, wa_);
}

const std::vector<Matrix>& TemporalAttention::Backward(
    const Matrix& grad_context) {
  ScoreGrads(grad_context, 0);
  for (size_t t = 0; t < hs_.size(); ++t) ProjectionGrad(t, true);
  return dhs_;
}

const Matrix& TemporalAttention::LastStepInputGrad(
    const Matrix& grad_context) {
  DBAUGUR_CHECK(!hs_.empty(),
                "TemporalAttention::LastStepInputGrad needs a cached forward "
                "pass");
  const size_t last = hs_.size() - 1;
  ScoreGrads(grad_context, last);
  ProjectionGrad(last, false);
  return dhs_[last];
}

std::vector<Param> TemporalAttention::Params() {
  return {{&wa_, &dwa_, "attn.wa"},
          {&ba_, &dba_, "attn.ba"},
          {&v_, &dv_, "attn.v"}};
}

void TemporalAttention::ReleaseWorkspaces() {
  for (std::vector<Matrix>* v : {&hs_, &u_, &dhs_}) *v = std::vector<Matrix>();
  for (Matrix* m :
       {&alpha_, &scores_, &context_, &dalpha_, &dscore_, &s_, &du_}) {
    *m = Matrix();
  }
}

void TemporalAttention::ZeroGrad() {
  dwa_.Fill(0.0);
  dba_.Fill(0.0);
  dv_.Fill(0.0);
}

}  // namespace dbaugur::nn
