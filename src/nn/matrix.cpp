#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "nn/gemm.h"

namespace dbaugur::nn {

template <typename T>
MatrixT<T>::MatrixT(size_t rows, size_t cols, std::vector<T> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  DBAUGUR_CHECK_EQ(data_.size(), rows_ * cols_,
                   "Matrix data does not match shape ", rows_, "x", cols_);
}

template <typename T>
void MatrixT<T>::Fill(T v) {
  for (T& x : data_) x = v;
}

template <typename T>
void MatrixT<T>::Add(const MatrixT& other) {
  DBAUGUR_CHECK(SameShape(other), "Matrix::Add shape mismatch: ", rows_, "x",
                cols_, " vs ", other.rows_, "x", other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

template <typename T>
void MatrixT<T>::AddScaled(const MatrixT& other, T alpha) {
  DBAUGUR_CHECK(SameShape(other), "Matrix::AddScaled shape mismatch: ", rows_,
                "x", cols_, " vs ", other.rows_, "x", other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

template <typename T>
void MatrixT<T>::Sub(const MatrixT& other) {
  DBAUGUR_CHECK(SameShape(other), "Matrix::Sub shape mismatch: ", rows_, "x",
                cols_, " vs ", other.rows_, "x", other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

template <typename T>
void MatrixT<T>::Hadamard(const MatrixT& other) {
  DBAUGUR_CHECK(SameShape(other), "Matrix::Hadamard shape mismatch: ", rows_,
                "x", cols_, " vs ", other.rows_, "x", other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

template <typename T>
void MatrixT<T>::Scale(T alpha) {
  for (T& x : data_) x *= alpha;
}

namespace {

// Shape/aliasing contracts for the fused kernels, validated once at kernel
// entry (never in inner loops — those stay DCHECK-only via operator()).
template <typename T>
void CheckNoAlias(const MatrixT<T>& dest, const MatrixT<T>& a,
                  const MatrixT<T>& b, const char* op) {
  DBAUGUR_CHECK(dest.data() != a.data() && dest.data() != b.data(),
                op, " destination must not alias an operand");
}

}  // namespace

template <typename T>
MatrixT<T> MatrixT<T>::MatMul(const MatrixT& other) const {
  MatrixT out;
  out.MatMulInto(*this, other);
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::TransposeMatMul(const MatrixT& other) const {
  MatrixT out;
  out.TransposeMatMulInto(*this, other);
  return out;
}

template <typename T>
MatrixT<T> MatrixT<T>::MatMulTranspose(const MatrixT& other) const {
  MatrixT out;
  out.MatMulTransposeInto(*this, other);
  return out;
}

template <typename T>
void MatrixT<T>::MatMulInto(const MatrixT& a, const MatrixT& b) {
  DBAUGUR_CHECK_EQ(a.cols_, b.rows_, "Matrix::MatMul inner dimensions");
  Resize(a.rows_, b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::MatMulInto");
  GemmNN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), false);
}

template <typename T>
void MatrixT<T>::AddMatMul(const MatrixT& a, const MatrixT& b) {
  DBAUGUR_CHECK_EQ(a.cols_, b.rows_, "Matrix::AddMatMul inner dimensions");
  DBAUGUR_CHECK(rows_ == a.rows_ && cols_ == b.cols_,
                "Matrix::AddMatMul destination shape ", rows_, "x", cols_,
                " does not match product ", a.rows_, "x", b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::AddMatMul");
  GemmNN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), true);
}

template <typename T>
void MatrixT<T>::TransposeMatMulInto(const MatrixT& a, const MatrixT& b) {
  // (a^T * b): a is (m x n), b is (m x p), result (n x p).
  DBAUGUR_CHECK_EQ(a.rows_, b.rows_, "Matrix::TransposeMatMul row counts");
  Resize(a.cols_, b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::TransposeMatMulInto");
  GemmTN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), false);
}

template <typename T>
void MatrixT<T>::AddTransposeMatMul(const MatrixT& a, const MatrixT& b) {
  DBAUGUR_CHECK_EQ(a.rows_, b.rows_, "Matrix::AddTransposeMatMul row counts");
  DBAUGUR_CHECK(rows_ == a.cols_ && cols_ == b.cols_,
                "Matrix::AddTransposeMatMul destination shape ", rows_, "x",
                cols_, " does not match product ", a.cols_, "x", b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::AddTransposeMatMul");
  GemmTN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), true);
}

template <typename T>
void MatrixT<T>::MatMulTransposeInto(const MatrixT& a, const MatrixT& b) {
  // (a * b^T): a is (m x n), b is (p x n), result (m x p).
  DBAUGUR_CHECK_EQ(a.cols_, b.cols_, "Matrix::MatMulTranspose column counts");
  Resize(a.rows_, b.rows_);
  CheckNoAlias(*this, a, b, "Matrix::MatMulTransposeInto");
  GemmNT(a.rows_, a.cols_, b.rows_, a.data(), b.data(), data(), false);
}

template <typename T>
void MatrixT<T>::AddMatMulTranspose(const MatrixT& a, const MatrixT& b) {
  DBAUGUR_CHECK_EQ(a.cols_, b.cols_,
                   "Matrix::AddMatMulTranspose column counts");
  DBAUGUR_CHECK(rows_ == a.rows_ && cols_ == b.rows_,
                "Matrix::AddMatMulTranspose destination shape ", rows_, "x",
                cols_, " does not match product ", a.rows_, "x", b.rows_);
  CheckNoAlias(*this, a, b, "Matrix::AddMatMulTranspose");
  GemmNT(a.rows_, a.cols_, b.rows_, a.data(), b.data(), data(), true);
}

template <typename T>
MatrixT<T> MatrixT<T>::Transposed() const {
  MatrixT out(cols_, rows_);
  // Blocked so both the read and write side stay within a few cache lines
  // per tile instead of striding the full matrix on one side.
  constexpr size_t kTile = 32;
  const T* src = data();
  T* dst = out.data();
  for (size_t ib = 0; ib < rows_; ib += kTile) {
    const size_t ie = std::min(rows_, ib + kTile);
    for (size_t jb = 0; jb < cols_; jb += kTile) {
      const size_t je = std::min(cols_, jb + kTile);
      for (size_t i = ib; i < ie; ++i) {
        for (size_t j = jb; j < je; ++j) {
          dst[j * rows_ + i] = src[i * cols_ + j];
        }
      }
    }
  }
  return out;
}

template <typename T>
void MatrixT<T>::AddRowVector(const MatrixT& v) {
  DBAUGUR_CHECK_EQ(v.size(), cols_, "Matrix::AddRowVector width mismatch");
  for (size_t i = 0; i < rows_; ++i) {
    T* r = row(i);
    for (size_t j = 0; j < cols_; ++j) r[j] += v.data_[j];
  }
}

template <typename T>
MatrixT<T> MatrixT<T>::ColSum() const {
  MatrixT out(1, cols_, T(0));
  out.AddColSumOf(*this);
  return out;
}

template <typename T>
void MatrixT<T>::AddColSumOf(const MatrixT& other) {
  DBAUGUR_CHECK(rows_ == 1 && cols_ == other.cols_,
                "Matrix::AddColSumOf needs a 1x", other.cols_,
                " destination, got ", rows_, "x", cols_);
  T* acc = data();
  for (size_t i = 0; i < other.rows_; ++i) {
    const T* r = other.row(i);
    for (size_t j = 0; j < cols_; ++j) acc[j] += r[j];
  }
}

template <typename T>
double MatrixT<T>::SquaredNorm() const {
  double s = 0.0;
  for (T x : data_) s += static_cast<double>(x) * static_cast<double>(x);
  return s;
}

template <typename T>
bool MatrixT<T>::BitwiseEqual(const MatrixT& o) const {
  return SameShape(o) &&
         (data_.empty() ||
          std::memcmp(data_.data(), o.data_.data(), data_.size() * sizeof(T)) ==
              0);
}

template <typename T>
std::string MatrixT<T>::ToString(int precision) const {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(precision);
  for (size_t i = 0; i < rows_; ++i) {
    oss << '[';
    for (size_t j = 0; j < cols_; ++j) {
      oss << (*this)(i, j);
      if (j + 1 < cols_) oss << ", ";
    }
    oss << "]\n";
  }
  return oss.str();
}

template class MatrixT<double>;
template class MatrixT<float>;

void Tensor3::Fill(double v) {
  for (double& x : data_) x = v;
}

void Tensor3::Add(const Tensor3& other) {
  DBAUGUR_CHECK(SameShape(other), "Tensor3::Add shape mismatch: ", batch_,
                "x", channels_, "x", time_, " vs ", other.batch_, "x",
                other.channels_, "x", other.time_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

}  // namespace dbaugur::nn
