// Dense row-major matrix used throughout the neural-net substrate.
//
// Matmuls route through the register-blocked kernels in nn/gemm.h. Every
// product is an into/accumulate form (MatMulInto, AddMatMul, ...) that writes
// into an existing matrix, so training loops can run with zero steady-state
// heap allocation: Resize() reuses the underlying buffer whenever capacity
// suffices, exactly like std::vector.

#pragma once

#include <cstddef>
#include <vector>

#include "common/contracts.h"

namespace dbaugur::nn {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  /// Builds from explicit data (size must equal rows*cols).
  Matrix(size_t rows, size_t cols, std::vector<double> data);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  // Element access is the innermost loop of every kernel, so the bounds
  // checks are DCHECK-tier: free in Release, active in debug and sanitizer
  // builds (which define DBAUGUR_ENABLE_DCHECKS).
  double& operator()(size_t r, size_t c) {
    DBAUGUR_DCHECK(r < rows_ && c < cols_, "Matrix(", r, ",", c,
                   ") out of bounds for ", rows_, "x", cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    DBAUGUR_DCHECK(r < rows_ && c < cols_, "Matrix(", r, ",", c,
                   ") out of bounds for ", rows_, "x", cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(size_t r) {
    DBAUGUR_DCHECK_LT(r, rows_, "Matrix::row out of bounds");
    return &data_[r * cols_];
  }
  const double* row(size_t r) const {
    DBAUGUR_DCHECK_LT(r, rows_, "Matrix::row out of bounds");
    return &data_[r * cols_];
  }

  /// Sets every element to `v`.
  void Fill(double v);

  /// Reshapes to rows x cols, reusing the existing buffer when its capacity
  /// suffices (no heap traffic in steady-state training). Element values are
  /// unspecified afterwards; callers overwrite or Fill().
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// this += other (shapes must match).
  void Add(const Matrix& other);
  /// this += alpha * other.
  void AddScaled(const Matrix& other, double alpha);
  /// Scale all elements.
  void Scale(double alpha);

  // Fused into/accumulate products. The destination (this) is resized as
  // needed by the Into forms and must already have the product shape for the
  // Add forms; it must not alias either operand (checked).

  /// this = a * b.
  void MatMulInto(const Matrix& a, const Matrix& b);
  /// this += a * b.
  void AddMatMul(const Matrix& a, const Matrix& b);
  /// this = a^T * b.
  void TransposeMatMulInto(const Matrix& a, const Matrix& b);
  /// this += a^T * b (the dw accumulation pattern, one pass, no temporary).
  void AddTransposeMatMul(const Matrix& a, const Matrix& b);
  /// this = a * b^T.
  void MatMulTransposeInto(const Matrix& a, const Matrix& b);
  /// this += a * b^T.
  void AddMatMulTranspose(const Matrix& a, const Matrix& b);

  /// Adds a row vector (1 x cols or plain cols-length matrix row) to each row.
  void AddRowVector(const Matrix& v);
  /// this (1 x n) += column-wise sum of other (m x n): the bias gradient.
  void AddColSumOf(const Matrix& other);

  /// Applies f element-wise in place.
  template <typename F>
  void Apply(F f) {
    for (double& x : data_) x = f(x);
  }

  /// Frobenius-norm squared (used in tests and gradient clipping).
  double SquaredNorm() const;

  bool SameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  /// Same shape and the same bit pattern in every element (-0.0 differs
  /// from +0.0; a NaN equals itself). Checks the reuse contracts of the
  /// layers' partial passes.
  bool BitwiseEqual(const Matrix& o) const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// 3-D tensor (batch, channels, time) for convolutional layers; contiguous
/// with time innermost.
class Tensor3 {
 public:
  Tensor3() = default;
  Tensor3(size_t batch, size_t channels, size_t time, double fill = 0.0)
      : batch_(batch),
        channels_(channels),
        time_(time),
        data_(batch * channels * time, fill) {}

  size_t batch() const { return batch_; }
  size_t channels() const { return channels_; }
  size_t time() const { return time_; }

  double& operator()(size_t b, size_t c, size_t t) {
    DBAUGUR_DCHECK(b < batch_ && c < channels_ && t < time_, "Tensor3(", b,
                   ",", c, ",", t, ") out of bounds for ", batch_, "x",
                   channels_, "x", time_);
    return data_[(b * channels_ + c) * time_ + t];
  }
  double operator()(size_t b, size_t c, size_t t) const {
    DBAUGUR_DCHECK(b < batch_ && c < channels_ && t < time_, "Tensor3(", b,
                   ",", c, ",", t, ") out of bounds for ", batch_, "x",
                   channels_, "x", time_);
    return data_[(b * channels_ + c) * time_ + t];
  }

  double* lane(size_t b, size_t c) {
    DBAUGUR_DCHECK(b < batch_ && c < channels_, "Tensor3::lane(", b, ",", c,
                   ") out of bounds for ", batch_, "x", channels_);
    return &data_[(b * channels_ + c) * time_];
  }
  const double* lane(size_t b, size_t c) const {
    DBAUGUR_DCHECK(b < batch_ && c < channels_, "Tensor3::lane(", b, ",", c,
                   ") out of bounds for ", batch_, "x", channels_);
    return &data_[(b * channels_ + c) * time_];
  }

  void Fill(double v);

  /// Reshapes, reusing the buffer when capacity suffices; element values are
  /// unspecified afterwards (see Matrix::Resize).
  void Resize(size_t batch, size_t channels, size_t time) {
    batch_ = batch;
    channels_ = channels;
    time_ = time;
    data_.resize(batch * channels * time);
  }

  bool SameShape(const Tensor3& o) const {
    return batch_ == o.batch_ && channels_ == o.channels_ && time_ == o.time_;
  }

 private:
  size_t batch_ = 0;
  size_t channels_ = 0;
  size_t time_ = 0;
  std::vector<double> data_;
};

}  // namespace dbaugur::nn
