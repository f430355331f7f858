// Small shared math helpers used across modules.

#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/status.h"

namespace dbaugur {

/// Mean of a vector (0 for empty input).
double Mean(const std::vector<double>& v);

/// Population variance (0 for fewer than 2 elements).
double Variance(const std::vector<double>& v);

/// Population standard deviation.
double StdDev(const std::vector<double>& v);

/// Median (0 for empty input). Takes a copy: selection reorders elements.
/// Even-length inputs use the lower middle element, which keeps the result an
/// actual sample value — what the MAD-based outlier clamp wants.
double Median(std::vector<double> v);

/// Numerically stable sigmoid.
inline double Sigmoid(double x) {
  if (x >= 0) {
    double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  double z = std::exp(x);
  return z / (1.0 + z);
}

/// Clamps x into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

/// Solves the linear system A x = b for a dense square matrix A (row-major,
/// n x n) via Gaussian elimination with partial pivoting. Returns
/// InvalidArgument on dimension mismatch and Internal when A is singular.
StatusOr<std::vector<double>> SolveLinearSystem(std::vector<double> a,
                                                std::vector<double> b,
                                                size_t n);

/// Ordinary least squares: finds beta minimizing ||X beta - y||^2 where X is
/// row-major (rows x cols). Adds `ridge` * I to the normal equations for
/// numerical stability (ridge >= 0). Returns the coefficient vector.
StatusOr<std::vector<double>> LeastSquares(const std::vector<double>& x,
                                           const std::vector<double>& y,
                                           size_t rows, size_t cols,
                                           double ridge = 1e-8);

}  // namespace dbaugur
