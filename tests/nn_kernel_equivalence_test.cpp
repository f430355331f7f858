// Property tests pinning the fused GEMM kernels to the pre-PR naive kernels.
//
// The determinism contract (nn/gemm.h) says every fused/into variant matches
// the naive reference bit-for-bit — same per-element accumulation order — ON
// THE SCALAR DISPATCH TIER (the fixture forces it; vector tiers are covered
// by simd_gemm_test at a documented ULP tolerance). These tests exercise odd
// shapes (1xN, Nx1, prime dims) and inputs salted with exact zeros (the
// legacy kernels skipped zero operands).

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "nn/gemm.h"
#include "nn/matrix.h"

namespace dbaugur::nn {
namespace {

struct Shape {
  size_t m, k, n;
};

// Odd shapes: degenerate rows/cols, primes, and one size big enough for
// multiple register blocks and column panels.
const Shape kShapes[] = {
    {1, 1, 1},  {1, 7, 1},   {7, 1, 13},  {1, 13, 31}, {31, 1, 1},
    {5, 3, 2},  {13, 7, 31}, {31, 31, 31}, {2, 64, 3},  {97, 89, 101},
};

Matrix RandomWithZeros(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      // ~1/4 exact zeros so the removed zero-skip branch is exercised.
      double u = rng->Uniform();
      m(i, j) = u < 0.25 ? 0.0 : (u - 0.5) * 4.0;
    }
  }
  return m;
}

void ExpectBitIdentical(const Matrix& got, const Matrix& want,
                        const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i])
        << what << " diverges at flat index " << i;
  }
}

class KernelEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(simd::ForceTier(simd::Tier::kScalar));
  }
  void TearDown() override { simd::ResetForcedTier(); }
  Rng rng_{20240817};
};

TEST_F(KernelEquivalenceTest, MatMulMatchesNaiveReference) {
  Matrix got;  // reused across shapes: each call overwrites all of it
  for (const Shape& s : kShapes) {
    Matrix a = RandomWithZeros(s.m, s.k, &rng_);
    Matrix b = RandomWithZeros(s.k, s.n, &rng_);
    Matrix want(s.m, s.n, 0.0);
    ref::MatMul(s.m, s.k, s.n, a.data(), b.data(), want.data());
    got.MatMulInto(a, b);
    ExpectBitIdentical(got, want, "MatMulInto vs ref");
  }
}

TEST_F(KernelEquivalenceTest, AddMatMulMatchesNaiveAccumulate) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomWithZeros(s.m, s.k, &rng_);
    Matrix b = RandomWithZeros(s.k, s.n, &rng_);
    Matrix seed = RandomWithZeros(s.m, s.n, &rng_);
    Matrix want = seed;
    ref::MatMul(s.m, s.k, s.n, a.data(), b.data(), want.data());
    Matrix got = seed;
    got.AddMatMul(a, b);
    ExpectBitIdentical(got, want, "AddMatMul vs ref");
  }
}

TEST_F(KernelEquivalenceTest, TransposeMatMulMatchesNaiveReference) {
  Matrix got;  // reused across shapes: each call overwrites all of it
  for (const Shape& s : kShapes) {
    // a is (m x k); a^T * b with b (m x n) gives (k x n).
    Matrix a = RandomWithZeros(s.m, s.k, &rng_);
    Matrix b = RandomWithZeros(s.m, s.n, &rng_);
    Matrix want(s.k, s.n, 0.0);
    ref::TransposeMatMul(s.m, s.k, s.n, a.data(), b.data(), want.data());
    got.TransposeMatMulInto(a, b);
    ExpectBitIdentical(got, want, "TransposeMatMulInto vs ref");
  }
}

TEST_F(KernelEquivalenceTest, AddTransposeMatMulMatchesNaiveAccumulate) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomWithZeros(s.m, s.k, &rng_);
    Matrix b = RandomWithZeros(s.m, s.n, &rng_);
    Matrix seed = RandomWithZeros(s.k, s.n, &rng_);
    Matrix want = seed;
    ref::TransposeMatMul(s.m, s.k, s.n, a.data(), b.data(), want.data());
    Matrix got = seed;
    got.AddTransposeMatMul(a, b);
    ExpectBitIdentical(got, want, "AddTransposeMatMul vs ref");
  }
}

TEST_F(KernelEquivalenceTest, MatMulTransposeMatchesNaiveReference) {
  Matrix got;  // reused across shapes: each call overwrites all of it
  for (const Shape& s : kShapes) {
    // a (m x k) * b^T with b (n x k) gives (m x n).
    Matrix a = RandomWithZeros(s.m, s.k, &rng_);
    Matrix b = RandomWithZeros(s.n, s.k, &rng_);
    Matrix want(s.m, s.n, 0.0);
    ref::MatMulTranspose(s.m, s.k, s.n, a.data(), b.data(), want.data());
    got.MatMulTransposeInto(a, b);
    ExpectBitIdentical(got, want, "MatMulTransposeInto vs ref");
  }
}

TEST_F(KernelEquivalenceTest, AddMatMulTransposeMatchesNaiveAccumulate) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomWithZeros(s.m, s.k, &rng_);
    Matrix b = RandomWithZeros(s.n, s.k, &rng_);
    Matrix seed = RandomWithZeros(s.m, s.n, &rng_);
    // ref::MatMulTranspose overwrites, so build the accumulate answer by hand
    // with the same per-element order (seed + ascending-kk dot).
    Matrix prod(s.m, s.n, 0.0);
    ref::MatMulTranspose(s.m, s.k, s.n, a.data(), b.data(), prod.data());
    Matrix want = seed;
    want.Add(prod);
    Matrix got = seed;
    got.AddMatMulTranspose(a, b);
    ExpectBitIdentical(got, want, "AddMatMulTranspose vs ref");
  }
}

TEST_F(KernelEquivalenceTest, AddColSumOfMatchesColSum) {
  for (const Shape& s : kShapes) {
    Matrix a = RandomWithZeros(s.m, s.n, &rng_);
    Matrix seed = RandomWithZeros(1, s.n, &rng_);
    // Naive direct accumulation into the seed (same per-element order as the
    // fused kernel; summing the columns first and then adding would
    // reassociate the sums).
    Matrix want = seed;
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t j = 0; j < a.cols(); ++j) want(0, j) += a(i, j);
    }
    Matrix got = seed;
    got.AddColSumOf(a);
    ExpectBitIdentical(got, want, "AddColSumOf");
  }
}

}  // namespace
}  // namespace dbaugur::nn
