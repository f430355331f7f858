// Fully connected layer with optional fused activation.

#pragma once

#include "common/rng.h"
#include "nn/layer.h"

namespace dbaugur::nn {

/// Supported activations for Dense.
enum class Activation { kIdentity, kRelu, kTanh, kSigmoid };

/// y = act(x W + b); W is (in x out), b is (1 x out).
template <typename T>
class DenseT : public LayerT<T> {
 public:
  DenseT(size_t in, size_t out, Activation act, Rng* rng);

  const MatrixT<T>& Forward(const MatrixT<T>& input) override;
  const MatrixT<T>& Backward(const MatrixT<T>& grad_output) override;
  /// dLoss/dInput alone: Backward without the parameter gradients (same
  /// result and workspace).
  const MatrixT<T>& InputGrad(const MatrixT<T>& grad_output);
  std::vector<ParamT<T>> Params() override;

  size_t in_features() const { return in_; }
  size_t out_features() const { return out_; }
  const MatrixT<T>& weight() const { return w_; }
  const MatrixT<T>& bias() const { return b_; }

 private:
  size_t in_;
  size_t out_;
  Activation act_;
  MatrixT<T> w_, b_;
  MatrixT<T> dw_, db_;
  MatrixT<T> input_;       // cached for backward
  MatrixT<T> pre_act_;     // cached pre-activation (z)
  MatrixT<T> output_;      // cached post-activation
  MatrixT<T> g_;           // workspace: activation-scaled upstream gradient
  MatrixT<T> dx_;          // workspace: returned input gradient
};

extern template class DenseT<double>;
extern template class DenseT<float>;

using Dense = DenseT<double>;
using DenseF = DenseT<float>;

/// Applies the activation in place and returns the result.
template <typename T>
void ApplyActivation(Activation act, MatrixT<T>* m);

/// Given z (pre-activation) and y (post-activation), multiplies `grad` by the
/// activation derivative element-wise.
template <typename T>
void ApplyActivationGrad(Activation act, const MatrixT<T>& pre,
                         const MatrixT<T>& post, MatrixT<T>* grad);

extern template void ApplyActivation<double>(Activation, Matrix*);
extern template void ApplyActivation<float>(Activation, MatrixF*);
extern template void ApplyActivationGrad<double>(Activation, const Matrix&,
                                                 const Matrix&, Matrix*);
extern template void ApplyActivationGrad<float>(Activation, const MatrixF&,
                                                const MatrixF&, MatrixF*);

}  // namespace dbaugur::nn
