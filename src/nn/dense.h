// Fully connected layer with optional fused activation.

#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace dbaugur::nn {

/// Supported activations for Dense.
enum class Activation { kIdentity, kRelu, kTanh, kSigmoid };

/// y = act(x W + b); W is (in x out), b is (1 x out).
class Dense : public Layer {
 public:
  Dense(size_t in, size_t out, Activation act, Rng* rng);

  const Matrix& Forward(const Matrix& input) override;
  const Matrix& Backward(const Matrix& grad_output) override;
  /// dLoss/dInput alone: Backward without the parameter gradients (same
  /// result and workspace).
  const Matrix& InputGrad(const Matrix& grad_output);
  std::vector<Param> Params() override;
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
