// Register-blocked GEMM microkernels for the neural training hot path.
//
// Every kernel operates on fully-packed row-major buffers (leading dimension
// == column count) and comes in an overwrite (`accumulate == false`) and an
// accumulate (`accumulate == true`) flavor, so layer code can fuse the
// pervasive "grad.Add(a.TransposeMatMul(b))" pattern into one pass with no
// temporary matrix.
//
// Determinism contract (per dispatch tier — see common/simd.h and the README
// "SIMD kernels & runtime dispatch" section):
//
//  * Scalar tier (`DBAUGUR_SIMD=off`, non-x86 hosts): the PR-3 register-tiled
//    kernels, unchanged. For a fixed output element the floating-point
//    accumulation order is the same as the naive textbook loop (ascending
//    over the reduction index), independent of register blocking, so results
//    are bit-identical to nn::ref. The only intended difference from the
//    legacy kernels is the removal of their `if (a == 0.0) continue` branch,
//    which can flip the sign of a ±0.0 result but nothing else.
//
//  * Vector tiers (sse2/avx2): NN and TN keep the ascending reduction
//    order per output element (they vectorize across output *columns*), so
//    they differ from the scalar tier only by FMA contraction — a few ULP.
//    NT vectorizes the reduction itself with W-wide partial sums and a
//    horizontal reduce, which reassociates the sum; tests bound the error at
//    a documented ULP tolerance.
//
// The pre-PR naive kernels are retained under nn::ref as the ground truth for
// equivalence tests and as the baseline timed by bench/nn_kernels.

#pragma once

#include <cstddef>

namespace dbaugur::nn {

/// c (m x n) = [c +] a (m x k) * b (k x n).
void GemmNN(size_t m, size_t k, size_t n, const double* a, const double* b,
            double* c, bool accumulate);

/// c (k x n) = [c +] a^T * b, where a is (m x k) and b is (m x n).
void GemmTN(size_t m, size_t k, size_t n, const double* a, const double* b,
            double* c, bool accumulate);

/// c (m x p) = [c +] a (m x k) * b^T, where b is (p x k).
void GemmNT(size_t m, size_t k, size_t p, const double* a, const double* b,
            double* c, bool accumulate);

namespace ref {

// Verbatim pre-PR kernels (naive loops, zero-skip branch, fresh allocation
// per call in their Matrix wrappers). Used by tests to pin the fused kernels
// and by bench/nn_kernels to measure the speedup against the old code path.

/// c (m x n) += a * b with the legacy `a == 0.0` skip.
void MatMul(size_t m, size_t k, size_t n, const double* a, const double* b,
            double* c);
/// c (k x n) += a^T * b with the legacy skip; a is (m x k), b is (m x n).
void TransposeMatMul(size_t m, size_t k, size_t n, const double* a,
                     const double* b, double* c);
/// c (m x p) = a * b^T (dot-product form, no skip); b is (p x k).
void MatMulTranspose(size_t m, size_t k, size_t p, const double* a,
                     const double* b, double* c);

}  // namespace ref

}  // namespace dbaugur::nn
