// Fully connected layer with optional fused activation.

#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace dbaugur::nn {

/// Supported activations for Dense.
enum class Activation { kIdentity, kRelu, kTanh, kSigmoid };

/// y = act(x W + b) for [batch, in] inputs; W is (in x out), b is (1 x out).
///
/// Forward/Backward return references to layer-owned workspaces, so a
/// steady-state training step performs no heap allocation inside the layer;
/// the referenced matrix stays valid until the next call on the same layer.
/// Callers that need the value beyond that must copy it.
class Dense {
 public:
  Dense(size_t in, size_t out, Activation act, Rng* rng);

  /// Computes the output and caches whatever Backward needs.
  const Matrix& Forward(const Matrix& input);
  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after Forward on the same input.
  const Matrix& Backward(const Matrix& grad_output);
  /// dLoss/dInput alone: Backward without the parameter gradients (same
  /// result and workspace).
  const Matrix& InputGrad(const Matrix& grad_output);
  /// Weight, then bias.
  std::vector<Param> Params();
  /// Resets the accumulated gradients to zero.
  void ZeroGrad();
  /// Frees the forward caches and backward workspaces; parameters and
  /// gradient accumulators stay. The next Forward re-sizes them, and a
  /// Backward before it fails its shape check.
  void ReleaseWorkspaces();

  const Matrix& weight() const { return w_; }
  const Matrix& bias() const { return b_; }

 private:
  size_t in_;
  Activation act_;
  Matrix w_, b_;
  Matrix dw_, db_;
  Matrix input_;    // cached for backward
  Matrix pre_act_;  // cached pre-activation (z)
  Matrix output_;   // cached post-activation
  Matrix g_;        // workspace: activation-scaled upstream gradient
  Matrix dx_;       // workspace: returned input gradient
};

/// Applies the activation in place and returns the result.
void ApplyActivation(Activation act, Matrix* m);

/// Given z (pre-activation) and y (post-activation), multiplies `grad` by the
/// activation derivative element-wise.
void ApplyActivationGrad(Activation act, const Matrix& pre, const Matrix& post,
                         Matrix* grad);

}  // namespace dbaugur::nn
