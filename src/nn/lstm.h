// LSTM layer with backpropagation through time.
//
// The paper's WFGAN generator/discriminator and the LSTM baseline all use a
// single LSTM layer producing per-step hidden states (fed to a temporal
// attention layer or a dense head).

#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/matrix.h"

namespace dbaugur::nn {

/// Single-layer LSTM. Sequences are time-major: xs[t] is a [batch, input]
/// matrix; ForwardSequence returns hs[t] = [batch, hidden].
///
/// Gate layout in the fused weight matrices is [i | f | g | o] where i/f/o are
/// sigmoid gates and g is the tanh candidate.
///
/// The fused element-wise gate math routes through the runtime-dispatched
/// kernels in nn/lstm_kernels.h (see there for the per-tier determinism
/// contract); the matmuls route through nn/gemm.h as before.
class LSTM {
 public:
  LSTM(size_t input_size, size_t hidden_size, Rng* rng);

  /// Runs the full sequence from zero initial state, caching activations for
  /// BackwardSequence. The returned vector is a layer-owned workspace valid
  /// until the next ForwardSequence call; steady-state calls with the same
  /// shapes do not touch the heap.
  ///
  /// With first_step > 0 only steps >= first_step are computed; the hidden
  /// states and caches of the earlier steps are reused from the previous
  /// ForwardSequence call, so the result is bit-identical to a full pass.
  /// Contract: the weights are unchanged since that call, xs has its shape,
  /// and xs[t] equals its input for every t < first_step (DCHECKed). A
  /// BackwardSequence or LastStepInputGrad in between only reads the caches.
  const std::vector<Matrix>& ForwardSequence(
      const std::vector<Matrix>& xs, size_t first_step = 0);

  /// grad_hs[t] = dLoss/dh_t (zero matrices allowed). Accumulates parameter
  /// gradients and returns dLoss/dx_t for each step (layer-owned workspace,
  /// valid until the next BackwardSequence or LastStepInputGrad call).
  const std::vector<Matrix>& BackwardSequence(
      const std::vector<Matrix>& grad_hs);

  /// dLoss/dx_{T-1} of the cached pass from dLoss/dh_{T-1} alone: the last
  /// input enters only the last step, which has no successor, so this is one
  /// gate backward and one matmul. Bit-identical to
  /// BackwardSequence(grad_hs).back() for any grad_hs ending in grad_h, but
  /// accumulates no parameter gradient. Same workspace rules as
  /// BackwardSequence.
  const Matrix& LastStepInputGrad(const Matrix& grad_h);

  std::vector<Param> Params();
  void ZeroGrad();
  /// Frees the per-step caches and backward workspaces and forgets the
  /// cached pass (parameters and gradient accumulators stay). The next full
  /// ForwardSequence re-sizes them; a partial pass, BackwardSequence or
  /// LastStepInputGrad before it fails its DBAUGUR_CHECK.
  void ReleaseWorkspaces();

 private:
  // h_prev/c_prev are not stored per step: backward reads hs_[t-1] /
  // cache_[t-1].c (zeros_ at t == 0) instead of keeping copies.
  struct StepCache {
    Matrix x;           // input copy (callers may mutate theirs)
    Matrix i, f, g, o;  // gate activations, each [batch, hidden]
    Matrix c, tanh_c;
  };

  /// Zeroes the gradients carried into the last step (it has no successor)
  /// and sizes the backward workspaces.
  void ResetCarriedGrads(size_t batch);
  /// Gate gradients of step t into dz_ and dc_prev_, from the upstream
  /// grad_h and the carried dh_next_ / dc_next_.
  void StepGateGrads(size_t t, const Matrix& grad_h);

  size_t input_;
  size_t hidden_;
  Matrix wx_;  // [input, 4*hidden]
  Matrix wh_;  // [hidden, 4*hidden]
  Matrix b_;   // [1, 4*hidden]
  Matrix dwx_, dwh_, db_;
  std::vector<StepCache> cache_;  // persistent; first steps_ entries valid
  size_t steps_ = 0;              // steps of the cached forward pass

  // Persistent workspaces (capacity survives across calls).
  std::vector<Matrix> hs_;   // per-step hidden states returned by forward
  std::vector<Matrix> dxs_;  // per-step input grads returned by backward
  Matrix zeros_;             // [batch, hidden] zero initial h/c
  Matrix z_;                 // fused gate pre-activation [batch, 4*hidden]
  Matrix dh_, dz_, dh_next_, dc_next_, dc_prev_;
};

}  // namespace dbaugur::nn
