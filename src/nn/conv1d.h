// Causal dilated 1-D convolution and the TCN residual block (Bai et al. 2018).
//
// The TCN baseline stacks residual blocks with dilations 1, 2, 4, 8, 16 so the
// receptive field covers the whole condition window — the paper's "global
// view" model for long-term patterns.

#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layer.h"
#include "nn/matrix.h"

namespace dbaugur::nn {

/// Causal dilated conv: out(b,co,t) = bias[co] +
///   sum_ci sum_j w[co][ci][j] * in(b, ci, t - (k-1-j)*dilation)
/// with implicit zero left-padding, so output length == input length and no
/// future leakage.
///
/// A conv can be restricted to a set of output steps (set_steps). It then
/// builds im2col rows, runs its GEMMs and gathers/scatters gradients for
/// those steps only. Every value it still computes uses the same operands in
/// the same order as the all-steps conv, and every skipped gradient term is
/// an exact zero, so the results are bit-identical where they are defined.
class CausalConv1D {
 public:
  CausalConv1D(size_t in_channels, size_t out_channels, size_t kernel,
               size_t dilation, Rng* rng);

  /// Returns a layer-owned workspace valid until the next Forward call;
  /// steady-state calls with the same shapes do not touch the heap. When
  /// restricted, output steps outside the set are left unspecified.
  const Tensor3& Forward(const Tensor3& input);
  /// Accumulates parameter gradients, returns dLoss/dInput (layer-owned
  /// workspace, valid until the next Backward call). When restricted,
  /// grad_output must be zero outside the step set (only those steps are
  /// read); the input gradient is exact at every step, zero where no
  /// computed output reads it.
  const Tensor3& Backward(const Tensor3& grad_output);

  /// Restricts the conv to output steps `steps` (ascending, distinct, each
  /// below the time length of every later input). Empty, the default,
  /// computes every step.
  void set_steps(std::vector<size_t> steps);
  const std::vector<size_t>& steps() const { return steps_; }
  /// The input steps that output steps `out` read, ascending and distinct:
  /// t - j*dilation for every t in `out` and tap j, where non-negative.
  std::vector<size_t> ReadSteps(const std::vector<size_t>& out) const;

  std::vector<Param> Params();
  /// Frees the im2col and GEMM workspaces, the forward output and the input
  /// gradient, and forgets the cached input shape; parameters, gradient
  /// accumulators and the step restriction stay. The next Forward re-sizes
  /// them, and a Backward before it fails its shape check.
  void ReleaseWorkspaces();

 private:
  /// Unrolls `input` at the active steps into col_
  /// ([batch*steps, in_ch*kernel]) so forward and both backward products
  /// become single GEMM calls (im2col).
  void BuildColMatrix(const Tensor3& input, const std::vector<size_t>& steps);

  size_t in_ch_, out_ch_, kernel_, dilation_;
  Matrix w_;   // [out_ch, in_ch * kernel]
  Matrix b_;   // [1, out_ch]
  Matrix dw_, db_;
  std::vector<size_t> steps_;      // restriction; empty => every step
  std::vector<size_t> all_steps_;  // 0..time-1 when unrestricted
  size_t batch_ = 0, time_ = 0;    // shape of the cached forward input

  // Persistent workspaces (capacity survives across calls).
  Matrix col_;      // im2col unrolled input [batch*steps, in_ch*kernel]
  Matrix out_mat_;  // forward product [batch*steps, out_ch]
  Matrix go_mat_;   // gathered grad_output [batch*steps, out_ch]
  Matrix dcol_;     // grad wrt col_ [batch*steps, in_ch*kernel]
  Tensor3 out_;     // forward result
  Tensor3 dx_;      // backward result
};

/// TCN residual block: relu(conv2(relu(conv1(x))) + downsample(x)) where
/// downsample is a 1x1 conv when the channel count changes, identity
/// otherwise.
class TCNBlock {
 public:
  TCNBlock(size_t in_channels, size_t channels, size_t kernel, size_t dilation,
           Rng* rng);

  /// Workspace-returning, like CausalConv1D::Forward/Backward, with the same
  /// rules when the block is restricted.
  const Tensor3& Forward(const Tensor3& input);
  const Tensor3& Backward(const Tensor3& grad_output);
  std::vector<Param> Params();
  /// CausalConv1D::ReleaseWorkspaces for every conv, plus the block's own
  /// activations and workspaces. A Backward before the next Forward fails
  /// its shape check.
  void ReleaseWorkspaces();

  /// Restricts the block to output steps `steps` (ascending, distinct):
  /// conv2 and the downsample conv compute those steps and conv1 the steps
  /// conv2 reads. Returns the input steps the block then reads — the output
  /// steps the previous block must produce.
  std::vector<size_t> RestrictOutputSteps(std::vector<size_t> steps);

 private:
  CausalConv1D conv1_;
  CausalConv1D conv2_;
  std::unique_ptr<CausalConv1D> downsample_;  // null => identity skip
  std::vector<size_t> all_steps_;             // 0..time-1 when unrestricted
  Tensor3 a1_, out_;                          // cached activations
  Tensor3 g_, g2_, dx_;                       // backward workspaces
};

}  // namespace dbaugur::nn
