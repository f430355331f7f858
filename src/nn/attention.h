// Temporal (additive) attention over per-step LSTM hidden states.
//
// WFGAN summarizes hidden states h_1..h_T into a context vector via learned
// attention weights instead of relying only on h_T (paper Eq. 2-3):
//   u_t = tanh(h_t Wa + ba),  s_t = u_t . v,  alpha = softmax_t(s),
//   context = sum_t alpha_t h_t.

#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/matrix.h"

namespace dbaugur::nn {

/// Additive temporal attention pooling a sequence of [batch, hidden] states
/// into one [batch, hidden] context.
class TemporalAttention {
 public:
  TemporalAttention(size_t hidden, size_t attn_dim, Rng* rng);

  /// Computes the context vector; caches activations for Backward. The
  /// returned matrix is a layer-owned workspace valid until the next Forward
  /// call; steady-state calls with the same shapes do not touch the heap.
  ///
  /// With first_step > 0 only the projections u_t and scores of steps
  /// >= first_step are computed; earlier ones are reused from the previous
  /// Forward call. The softmax and the context always cover every step, so
  /// the result is bit-identical to a full pass. Contract as for
  /// LSTMT::ForwardSequence: the weights are unchanged since that call, hs
  /// has its shape, and hs[t] equals its input for every t < first_step
  /// (DCHECKed). A Backward or LastStepInputGrad in between only reads the
  /// caches.
  const Matrix& Forward(const std::vector<Matrix>& hs, size_t first_step = 0);

  /// Given dLoss/dContext, accumulates parameter gradients and returns
  /// dLoss/dh_t for every step (layer-owned workspace, valid until the next
  /// Backward or LastStepInputGrad call).
  const std::vector<Matrix>& Backward(const Matrix& grad_context);

  /// dLoss/dh_{T-1} alone, bit-identical to Backward(grad_context).back()
  /// but without the other steps' projection gradients or any parameter
  /// gradient. The softmax term still reads every step (one dot product per
  /// step and row). Same workspace rules as Backward.
  const Matrix& LastStepInputGrad(const Matrix& grad_context);

  std::vector<Param> Params();
  void ZeroGrad();
  /// Frees the cached inputs, activations and backward workspaces and
  /// forgets the cached pass (parameters and gradient accumulators stay).
  /// The next full Forward re-sizes them; a partial pass or
  /// LastStepInputGrad before it fails its DBAUGUR_CHECK.
  void ReleaseWorkspaces();

  /// Attention weights of the last Forward call: [batch, T].
  const Matrix& last_weights() const { return alpha_; }

 private:
  /// dalpha_ and dscore_ for every step (the softmax couples them all), and
  /// the context term alpha_t * dContext of dhs_[t] for t >= first_step.
  void ScoreGrads(const Matrix& grad_context, size_t first_step);
  /// Adds step t's projection term to dhs_[t]; with `param_grads` also
  /// accumulates dv_, dwa_ and dba_.
  void ProjectionGrad(size_t t, bool param_grads);

  size_t hidden_;
  Matrix wa_;  // [hidden, attn]
  Matrix ba_;  // [1, attn]
  Matrix v_;   // [attn, 1]
  Matrix dwa_, dba_, dv_;

  std::vector<Matrix> hs_;  // cached inputs
  std::vector<Matrix> u_;   // cached tanh pre-scores, per step [batch, attn]
  Matrix alpha_;            // [batch, T]

  // Persistent workspaces (capacity survives across calls).
  Matrix scores_;            // [batch, T] pre-softmax
  Matrix context_;           // forward result
  std::vector<Matrix> dhs_;  // backward result
  Matrix dalpha_, dscore_;   // [batch, T]
  Matrix s_;                 // [batch, 1] per-step score column
  Matrix du_;                // [batch, attn]
};

}  // namespace dbaugur::nn
