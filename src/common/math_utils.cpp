#include "common/math_utils.h"

#include <algorithm>
#include <cmath>

namespace dbaugur {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) { return std::sqrt(Variance(v)); }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid), v.end());
  return v[mid];
}

StatusOr<std::vector<double>> SolveLinearSystem(std::vector<double> a,
                                                std::vector<double> b,
                                                size_t n) {
  if (a.size() != n * n || b.size() != n) {
    return Status::InvalidArgument("SolveLinearSystem: dimension mismatch");
  }
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::fabs(a[col * n + col]);
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::fabs(a[r * n + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12) {
      return Status::Internal("SolveLinearSystem: singular matrix");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    double inv = 1.0 / a[col * n + col];
    for (size_t r = col + 1; r < n; ++r) {
      double factor = a[r * n + col] * inv;
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (size_t ri = n; ri-- > 0;) {
    double s = b[ri];
    for (size_t c = ri + 1; c < n; ++c) s -= a[ri * n + c] * x[c];
    x[ri] = s / a[ri * n + ri];
  }
  return x;
}

StatusOr<std::vector<double>> LeastSquares(const std::vector<double>& x,
                                           const std::vector<double>& y,
                                           size_t rows, size_t cols,
                                           double ridge) {
  if (x.size() != rows * cols || y.size() != rows) {
    return Status::InvalidArgument("LeastSquares: dimension mismatch");
  }
  if (rows < cols) {
    return Status::InvalidArgument("LeastSquares: underdetermined system");
  }
  // Normal equations: (X^T X + ridge I) beta = X^T y.
  std::vector<double> xtx(cols * cols, 0.0);
  std::vector<double> xty(cols, 0.0);
  for (size_t r = 0; r < rows; ++r) {
    const double* row = &x[r * cols];
    for (size_t i = 0; i < cols; ++i) {
      xty[i] += row[i] * y[r];
      for (size_t j = i; j < cols; ++j) xtx[i * cols + j] += row[i] * row[j];
    }
  }
  for (size_t i = 0; i < cols; ++i) {
    for (size_t j = 0; j < i; ++j) xtx[i * cols + j] = xtx[j * cols + i];
    xtx[i * cols + i] += ridge;
  }
  return SolveLinearSystem(std::move(xtx), std::move(xty), cols);
}

}  // namespace dbaugur
