// Layer and parameter abstractions for the hand-rolled NN substrate.
//
// Layers own their parameters and accumulated gradients. Training code calls
// Forward, then Backward with the loss gradient, then hands the layer's
// parameter list to Adam (nn/optimizer.h). Gradients accumulate across
// Backward calls until ZeroGrad().

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/matrix.h"

namespace dbaugur::nn {

/// A trainable parameter: value plus its gradient accumulator.
struct Param {
  Matrix* value = nullptr;
  Matrix* grad = nullptr;
  std::string name;
};

/// Base class for layers mapping [batch, in] -> [batch, out].
///
/// Forward/Backward return references to layer-owned workspaces so a
/// steady-state training step performs no heap allocation inside layer code;
/// the referenced matrix stays valid until the next call on the same layer.
/// Callers that need the value beyond that must copy it.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the output and caches whatever Backward needs.
  virtual const Matrix& Forward(const Matrix& input) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after Forward on the same input.
  virtual const Matrix& Backward(const Matrix& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Param> Params() { return {}; }

  /// Resets accumulated gradients to zero.
  void ZeroGrad() {
    for (Param& p : Params()) p.grad->Fill(0.0);
  }

  /// Total number of scalar parameters.
  int64_t ParameterCount() {
    int64_t n = 0;
    for (Param& p : Params()) n += static_cast<int64_t>(p.value->size());
    return n;
  }
};

/// Clips every gradient in `params` so the global L2 norm is at most
/// `max_norm` (no-op if already within bounds). Guards LSTM training against
/// exploding gradients.
void ClipGradNorm(std::vector<Param>& params, double max_norm);

}  // namespace dbaugur::nn
