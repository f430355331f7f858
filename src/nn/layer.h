// Trainable parameters of the hand-rolled NN substrate.
//
// Layers (Dense, LSTM, TemporalAttention, CausalConv1D, TCNBlock) own their
// parameters and accumulated gradients and list them as Params. Training
// code runs a layer's forward, then its backward with the loss gradient,
// then hands the parameter list to Adam (nn/optimizer.h). Gradients
// accumulate across backward calls until they are zeroed.

#pragma once

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

/// Clips every gradient in `params` so the global L2 norm is at most
/// `max_norm` > 0 (no-op if already within bounds). Guards LSTM training
/// against exploding gradients.
void ClipGradNorm(std::vector<Param>& params, double max_norm);

}  // namespace dbaugur::nn
