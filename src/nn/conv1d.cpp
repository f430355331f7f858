#include "nn/conv1d.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <numeric>
#include <utility>

#include "common/contracts.h"
#include "nn/init.h"

namespace dbaugur::nn {

namespace {

// The steps a layer computes: its restriction, or every step of `time`.
const std::vector<size_t>& ActiveSteps(const std::vector<size_t>& restricted,
                                       size_t time, std::vector<size_t>* all) {
  if (!restricted.empty()) {
    DBAUGUR_CHECK_LT(restricted.back(), time,
                     "restricted conv step beyond the input's time length");
    return restricted;
  }
  if (all->size() != time) {
    all->resize(time);
    std::iota(all->begin(), all->end(), size_t{0});
  }
  return *all;
}

// Index of the first step >= `shift` in the ascending `steps`.
size_t FirstAtOrAfter(const std::vector<size_t>& steps, size_t shift) {
  return static_cast<size_t>(
      std::lower_bound(steps.begin(), steps.end(), shift) - steps.begin());
}

}  // namespace

CausalConv1D::CausalConv1D(size_t in_channels, size_t out_channels,
                           size_t kernel, size_t dilation, Rng* rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      dilation_(dilation),
      w_(out_channels, in_channels * kernel),
      b_(1, out_channels),
      dw_(out_channels, in_channels * kernel),
      db_(1, out_channels) {
  DBAUGUR_CHECK(in_channels > 0 && out_channels > 0 && kernel > 0 &&
                    dilation > 0,
                "CausalConv1D needs positive dims, got in=", in_channels,
                " out=", out_channels, " kernel=", kernel,
                " dilation=", dilation);
  double limit =
      std::sqrt(6.0 / static_cast<double>(in_channels * kernel + out_channels));
  UniformInit(&w_, rng, limit);
}

void CausalConv1D::set_steps(std::vector<size_t> steps) {
  DBAUGUR_CHECK(std::adjacent_find(steps.begin(), steps.end(),
                                   std::greater_equal<size_t>()) == steps.end(),
                "CausalConv1D steps must be ascending and distinct");
  steps_ = std::move(steps);
}

std::vector<size_t> CausalConv1D::ReadSteps(
    const std::vector<size_t>& out) const {
  std::vector<size_t> in;
  for (size_t t : out) {
    for (size_t j = 0; j < kernel_; ++j) {
      if (j * dilation_ <= t) in.push_back(t - j * dilation_);
    }
  }
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end()), in.end());
  return in;
}

void CausalConv1D::BuildColMatrix(const Tensor3& input,
                                  const std::vector<size_t>& steps) {
  const size_t rows = steps.size();
  const size_t stride = in_ch_ * kernel_;
  col_.Resize(batch_ * rows, stride);
  for (size_t bi = 0; bi < batch_; ++bi) {
    for (size_t ci = 0; ci < in_ch_; ++ci) {
      const double* ilane = input.lane(bi, ci);
      for (size_t j = 0; j < kernel_; ++j) {
        const size_t shift = (kernel_ - 1 - j) * dilation_;
        double* base = col_.data() + bi * rows * stride + ci * kernel_ + j;
        const size_t first = FirstAtOrAfter(steps, shift);
        for (size_t r = 0; r < first; ++r) base[r * stride] = 0.0;
        for (size_t r = first; r < rows; ++r) {
          base[r * stride] = ilane[steps[r] - shift];
        }
      }
    }
  }
}

const Tensor3& CausalConv1D::Forward(const Tensor3& input) {
  DBAUGUR_CHECK_EQ(input.channels(), in_ch_,
                   "CausalConv1D::Forward channel count");
  batch_ = input.batch();
  time_ = input.time();
  const std::vector<size_t>& steps = ActiveSteps(steps_, time_, &all_steps_);
  const size_t rows = steps.size();
  // im2col: one GEMM against w_ replaces the per-tap scalar loops (and the
  // branchy zero-weight skip) of the direct convolution.
  BuildColMatrix(input, steps);
  out_mat_.Resize(batch_ * rows, out_ch_);
  const double* bias = b_.data();
  for (size_t r = 0, n = out_mat_.rows(); r < n; ++r) {
    double* orow = out_mat_.row(r);
    for (size_t co = 0; co < out_ch_; ++co) orow[co] = bias[co];
  }
  out_mat_.AddMatMulTranspose(col_, w_);  // [B*S, OC] += col * w^T
  out_.Resize(batch_, out_ch_, time_);
  for (size_t bi = 0; bi < batch_; ++bi) {
    for (size_t co = 0; co < out_ch_; ++co) {
      double* olane = out_.lane(bi, co);
      const double* src = out_mat_.data() + bi * rows * out_ch_ + co;
      for (size_t r = 0; r < rows; ++r) olane[steps[r]] = src[r * out_ch_];
    }
  }
  return out_;
}

const Tensor3& CausalConv1D::Backward(const Tensor3& grad_output) {
  DBAUGUR_CHECK(grad_output.batch() == batch_ &&
                    grad_output.channels() == out_ch_ &&
                    grad_output.time() == time_,
                "CausalConv1D::Backward gradient shape ", grad_output.batch(),
                "x", grad_output.channels(), "x", grad_output.time(),
                " does not match forward output ", batch_, "x", out_ch_, "x",
                time_);
  const std::vector<size_t>& steps = ActiveSteps(steps_, time_, &all_steps_);
  const size_t rows = steps.size();
  // Gather grad_output into [B*S, OC] so dw/db/dcol are single fused passes.
  go_mat_.Resize(batch_ * rows, out_ch_);
  for (size_t bi = 0; bi < batch_; ++bi) {
    for (size_t co = 0; co < out_ch_; ++co) {
      const double* glane = grad_output.lane(bi, co);
      double* dst = go_mat_.data() + bi * rows * out_ch_ + co;
      for (size_t r = 0; r < rows; ++r) dst[r * out_ch_] = glane[steps[r]];
    }
  }
  db_.AddColSumOf(go_mat_);
  dw_.AddTransposeMatMul(go_mat_, col_);  // [OC, IC*K] += go^T * col
  dcol_.MatMulInto(go_mat_, w_);          // [B*S, IC*K]
  // Scatter-add dcol back through the im2col gather (skipping the zero pad).
  dx_.Resize(batch_, in_ch_, time_);
  dx_.Fill(0.0);
  const size_t stride = dcol_.cols();
  for (size_t bi = 0; bi < batch_; ++bi) {
    for (size_t ci = 0; ci < in_ch_; ++ci) {
      double* dxlane = dx_.lane(bi, ci);
      for (size_t j = 0; j < kernel_; ++j) {
        const size_t shift = (kernel_ - 1 - j) * dilation_;
        const double* base =
            dcol_.data() + bi * rows * stride + ci * kernel_ + j;
        for (size_t r = FirstAtOrAfter(steps, shift); r < rows; ++r) {
          dxlane[steps[r] - shift] += base[r * stride];
        }
      }
    }
  }
  return dx_;
}

std::vector<Param> CausalConv1D::Params() {
  return {{&w_, &dw_, "conv.w"}, {&b_, &db_, "conv.b"}};
}

void CausalConv1D::ReleaseWorkspaces() {
  all_steps_ = std::vector<size_t>();
  batch_ = 0;
  time_ = 0;
  for (Matrix* m : {&col_, &out_mat_, &go_mat_, &dcol_}) *m = Matrix();
  for (Tensor3* t : {&out_, &dx_}) *t = Tensor3();
}

TCNBlock::TCNBlock(size_t in_channels, size_t channels, size_t kernel,
                   size_t dilation, Rng* rng)
    : conv1_(in_channels, channels, kernel, dilation, rng),
      conv2_(channels, channels, kernel, dilation, rng) {
  if (in_channels != channels) {
    downsample_ =
        std::make_unique<CausalConv1D>(in_channels, channels, 1, 1, rng);
  }
}

std::vector<size_t> TCNBlock::RestrictOutputSteps(std::vector<size_t> steps) {
  DBAUGUR_CHECK(!steps.empty(), "TCNBlock needs at least one output step");
  std::vector<size_t> conv1_steps = conv2_.ReadSteps(steps);
  std::vector<size_t> read = conv1_.ReadSteps(conv1_steps);
  conv1_.set_steps(std::move(conv1_steps));
  if (downsample_) downsample_->set_steps(steps);
  // The skip connection reads the input at the output steps themselves.
  std::vector<size_t> merged;
  std::set_union(read.begin(), read.end(), steps.begin(), steps.end(),
                 std::back_inserter(merged));
  conv2_.set_steps(std::move(steps));
  return merged;
}

// The element-wise work runs only where a conv computes: a1_ at conv1's
// steps, out_ and the output gradient at conv2's. Each value is the
// expression the all-steps block evaluates there (x > 0 ? x : 0 for the
// ReLUs), so the block stays bit-identical where it is defined.
const Tensor3& TCNBlock::Forward(const Tensor3& input) {
  const size_t batch = input.batch();
  const size_t time = input.time();
  const Tensor3& h1 = conv1_.Forward(input);
  const size_t channels = h1.channels();
  const std::vector<size_t>& steps1 =
      ActiveSteps(conv1_.steps(), time, &all_steps_);
  a1_.Resize(batch, channels, time);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < channels; ++c) {
      const double* x = h1.lane(b, c);
      double* a = a1_.lane(b, c);
      for (size_t t : steps1) a[t] = x[t] > 0.0 ? x[t] : 0.0;
    }
  }
  const Tensor3& h2 = conv2_.Forward(a1_);
  const Tensor3& skip = downsample_ ? downsample_->Forward(input) : input;
  const std::vector<size_t>& steps2 =
      ActiveSteps(conv2_.steps(), time, &all_steps_);
  out_.Resize(batch, channels, time);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < channels; ++c) {
      const double* x2 = h2.lane(b, c);
      const double* xs = skip.lane(b, c);
      double* o = out_.lane(b, c);
      for (size_t t : steps2) {
        const double x = x2[t] + xs[t];
        o[t] = x > 0.0 ? x : 0.0;
      }
    }
  }
  return out_;
}

const Tensor3& TCNBlock::Backward(const Tensor3& grad_output) {
  DBAUGUR_CHECK(grad_output.SameShape(out_), "TCNBlock::Backward gradient ",
                grad_output.batch(), "x", grad_output.channels(), "x",
                grad_output.time(), " does not match the forward output");
  const size_t batch = out_.batch();
  const size_t channels = out_.channels();
  const size_t time = out_.time();
  const std::vector<size_t>& steps1 =
      ActiveSteps(conv1_.steps(), time, &all_steps_);
  const std::vector<size_t>& steps2 =
      ActiveSteps(conv2_.steps(), time, &all_steps_);
  // Zero the gradient where a ReLU clipped its forward value.
  g_.Resize(batch, channels, time);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < channels; ++c) {
      const double* o = out_.lane(b, c);
      const double* go = grad_output.lane(b, c);
      double* g = g_.lane(b, c);
      for (size_t t : steps2) g[t] = o[t] <= 0.0 ? 0.0 : go[t];
    }
  }
  const Tensor3& d2 = conv2_.Backward(g_);
  g2_.Resize(batch, channels, time);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < channels; ++c) {
      const double* a = a1_.lane(b, c);
      const double* d = d2.lane(b, c);
      double* g = g2_.lane(b, c);
      for (size_t t : steps1) g[t] = a[t] <= 0.0 ? 0.0 : d[t];
    }
  }
  // Copied: conv1 reuses its workspace on the next call.
  dx_ = conv1_.Backward(g2_);
  // The skip path's input gradient is zero outside the output steps.
  const Tensor3& dskip = downsample_ ? downsample_->Backward(g_) : g_;
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < dx_.channels(); ++c) {
      const double* ds = dskip.lane(b, c);
      double* dx = dx_.lane(b, c);
      for (size_t t : steps2) dx[t] += ds[t];
    }
  }
  return dx_;
}

void TCNBlock::ReleaseWorkspaces() {
  conv1_.ReleaseWorkspaces();
  conv2_.ReleaseWorkspaces();
  if (downsample_) downsample_->ReleaseWorkspaces();
  all_steps_ = std::vector<size_t>();
  for (Tensor3* t : {&a1_, &out_, &g_, &g2_, &dx_}) *t = Tensor3();
}

std::vector<Param> TCNBlock::Params() {
  std::vector<Param> out = conv1_.Params();
  for (Param& p : conv2_.Params()) out.push_back(p);
  if (downsample_) {
    for (Param& p : downsample_->Params()) out.push_back(p);
  }
  return out;
}

}  // namespace dbaugur::nn
