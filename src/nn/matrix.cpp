#include "nn/matrix.h"

#include <cstring>
#include <utility>

#include "nn/gemm.h"

namespace dbaugur::nn {

Matrix::Matrix(size_t rows, size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  DBAUGUR_CHECK_EQ(data_.size(), rows_ * cols_,
                   "Matrix data does not match shape ", rows_, "x", cols_);
}

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

void Matrix::Add(const Matrix& other) {
  DBAUGUR_CHECK(SameShape(other), "Matrix::Add shape mismatch: ", rows_, "x",
                cols_, " vs ", other.rows_, "x", other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, double alpha) {
  DBAUGUR_CHECK(SameShape(other), "Matrix::AddScaled shape mismatch: ", rows_,
                "x", cols_, " vs ", other.rows_, "x", other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Matrix::Scale(double alpha) {
  for (double& x : data_) x *= alpha;
}

namespace {

// Shape/aliasing contracts for the fused kernels, validated once at kernel
// entry (never in inner loops — those stay DCHECK-only via operator()).
void CheckNoAlias(const Matrix& dest, const Matrix& a, const Matrix& b,
                  const char* op) {
  DBAUGUR_CHECK(dest.data() != a.data() && dest.data() != b.data(),
                op, " destination must not alias an operand");
}

}  // namespace

void Matrix::MatMulInto(const Matrix& a, const Matrix& b) {
  DBAUGUR_CHECK_EQ(a.cols_, b.rows_, "Matrix::MatMul inner dimensions");
  Resize(a.rows_, b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::MatMulInto");
  GemmNN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), false);
}

void Matrix::AddMatMul(const Matrix& a, const Matrix& b) {
  DBAUGUR_CHECK_EQ(a.cols_, b.rows_, "Matrix::AddMatMul inner dimensions");
  DBAUGUR_CHECK(rows_ == a.rows_ && cols_ == b.cols_,
                "Matrix::AddMatMul destination shape ", rows_, "x", cols_,
                " does not match product ", a.rows_, "x", b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::AddMatMul");
  GemmNN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), true);
}

void Matrix::TransposeMatMulInto(const Matrix& a, const Matrix& b) {
  // (a^T * b): a is (m x n), b is (m x p), result (n x p).
  DBAUGUR_CHECK_EQ(a.rows_, b.rows_, "Matrix::TransposeMatMul row counts");
  Resize(a.cols_, b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::TransposeMatMulInto");
  GemmTN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), false);
}

void Matrix::AddTransposeMatMul(const Matrix& a, const Matrix& b) {
  DBAUGUR_CHECK_EQ(a.rows_, b.rows_, "Matrix::AddTransposeMatMul row counts");
  DBAUGUR_CHECK(rows_ == a.cols_ && cols_ == b.cols_,
                "Matrix::AddTransposeMatMul destination shape ", rows_, "x",
                cols_, " does not match product ", a.cols_, "x", b.cols_);
  CheckNoAlias(*this, a, b, "Matrix::AddTransposeMatMul");
  GemmTN(a.rows_, a.cols_, b.cols_, a.data(), b.data(), data(), true);
}

void Matrix::MatMulTransposeInto(const Matrix& a, const Matrix& b) {
  // (a * b^T): a is (m x n), b is (p x n), result (m x p).
  DBAUGUR_CHECK_EQ(a.cols_, b.cols_, "Matrix::MatMulTranspose column counts");
  Resize(a.rows_, b.rows_);
  CheckNoAlias(*this, a, b, "Matrix::MatMulTransposeInto");
  GemmNT(a.rows_, a.cols_, b.rows_, a.data(), b.data(), data(), false);
}

void Matrix::AddMatMulTranspose(const Matrix& a, const Matrix& b) {
  DBAUGUR_CHECK_EQ(a.cols_, b.cols_,
                   "Matrix::AddMatMulTranspose column counts");
  DBAUGUR_CHECK(rows_ == a.rows_ && cols_ == b.rows_,
                "Matrix::AddMatMulTranspose destination shape ", rows_, "x",
                cols_, " does not match product ", a.rows_, "x", b.rows_);
  CheckNoAlias(*this, a, b, "Matrix::AddMatMulTranspose");
  GemmNT(a.rows_, a.cols_, b.rows_, a.data(), b.data(), data(), true);
}

void Matrix::AddRowVector(const Matrix& v) {
  DBAUGUR_CHECK_EQ(v.size(), cols_, "Matrix::AddRowVector width mismatch");
  for (size_t i = 0; i < rows_; ++i) {
    double* r = row(i);
    for (size_t j = 0; j < cols_; ++j) r[j] += v.data_[j];
  }
}

void Matrix::AddColSumOf(const Matrix& other) {
  DBAUGUR_CHECK(rows_ == 1 && cols_ == other.cols_,
                "Matrix::AddColSumOf needs a 1x", other.cols_,
                " destination, got ", rows_, "x", cols_);
  double* acc = data();
  for (size_t i = 0; i < other.rows_; ++i) {
    const double* r = other.row(i);
    for (size_t j = 0; j < cols_; ++j) acc[j] += r[j];
  }
}

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return s;
}

bool Matrix::BitwiseEqual(const Matrix& o) const {
  return SameShape(o) &&
         (data_.empty() ||
          std::memcmp(data_.data(), o.data_.data(),
                      data_.size() * sizeof(double)) == 0);
}

void Tensor3::Fill(double v) {
  for (double& x : data_) x = v;
}

}  // namespace dbaugur::nn
