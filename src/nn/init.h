// Weight initialization helpers.

#pragma once

#include <cmath>

#include "common/rng.h"
#include "nn/matrix.h"

namespace dbaugur::nn {

/// Xavier/Glorot uniform initialization for a (fan_in x fan_out) weight.
inline void XavierInit(Matrix* w, Rng* rng) {
  double fan_in = static_cast<double>(w->rows());
  double fan_out = static_cast<double>(w->cols());
  double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (size_t i = 0; i < w->rows(); ++i) {
    for (size_t j = 0; j < w->cols(); ++j) {
      (*w)(i, j) = rng->Uniform(-limit, limit);
    }
  }
}

/// Uniform init with explicit limit (conv kernels where fan-in differs from
/// the matrix shape).
inline void UniformInit(Matrix* w, Rng* rng, double limit) {
  for (size_t i = 0; i < w->rows(); ++i) {
    for (size_t j = 0; j < w->cols(); ++j) {
      (*w)(i, j) = rng->Uniform(-limit, limit);
    }
  }
}

}  // namespace dbaugur::nn
