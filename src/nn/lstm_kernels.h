// Runtime-dispatched fused LSTM gate kernels (extracted from the PR-3 fused
// loops in lstm.cpp so the elementwise math can be vectorized per tier).
//
// Layouts: `z` is [batch, 4*hidden] in [i|f|g|o] gate order; every other
// buffer is [batch, hidden], fully packed. Buffers must not alias.
//
// Determinism contract: the scalar tier reproduces the PR-3 loop bodies
// exactly (dbaugur::Sigmoid / std::tanh, same expression trees — bit
// identical). Vector tiers use polynomial Exp/Sigmoid/Tanh from
// common/simd.h, accurate to a few ULP of libm; the backward pass contains no
// transcendentals and uses uncontracted mul/add, so it matches the scalar
// tier bit-for-bit given identical inputs.

#pragma once

#include <cstddef>

namespace dbaugur::nn {

/// i/f/o = sigmoid, g = tanh of the four z quarters; c = f*c_prev + i*g;
/// tanh_c = tanh(c); h = o * tanh_c.
void LstmGatesForward(std::size_t batch, std::size_t hidden, const double* z,
                      const double* c_prev, double* ig, double* fg, double* gg,
                      double* og, double* c, double* tanh_c, double* h);

/// Gate gradients into dz (same [i|f|g|o] layout) and dc_prev, from upstream
/// dh and the carried dc_next.
void LstmGatesBackward(std::size_t batch, std::size_t hidden, const double* dh,
                       const double* dc_next, const double* tanh_c,
                       const double* ig, const double* fg, const double* gg,
                       const double* og, const double* c_prev, double* dz,
                       double* dc_prev);

}  // namespace dbaugur::nn
