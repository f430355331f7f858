// Unit tests for the Matrix/Tensor3 containers and the loss functions.

#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.h"
#include "nn/matrix.h"

namespace dbaugur::nn {
namespace {

// The explicit transpose the fused products are checked against.
Matrix Transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) t(j, i) = m(i, j);
  }
  return t;
}

TEST(MatrixTest, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromData) {
  Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(m(0, 0), 1);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

TEST(MatrixTest, MatMul) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  Matrix c;
  c.MatMulInto(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(MatrixTest, TransposeMatMulAgreesWithExplicit) {
  Matrix a(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix b(3, 4, {1, 0, 2, 1, 3, 1, 0, 2, 2, 2, 1, 1});
  Matrix direct, fused;
  direct.MatMulInto(Transpose(a), b);
  fused.TransposeMatMulInto(a, b);
  EXPECT_TRUE(fused.BitwiseEqual(direct));  // small integers: exact
}

TEST(MatrixTest, MatMulTransposeAgreesWithExplicit) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b(4, 3, {1, 0, 2, 1, 3, 1, 0, 2, 2, 2, 1, 1});
  Matrix direct, fused;
  direct.MatMulInto(a, Transpose(b));
  fused.MatMulTransposeInto(a, b);
  EXPECT_TRUE(fused.BitwiseEqual(direct));  // small integers: exact
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {4, 5, 6});
  a.Add(b);
  EXPECT_DOUBLE_EQ(a(0, 0), 5);
  a.Scale(0.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.5);
  a.AddScaled(b, 2.0);
  EXPECT_DOUBLE_EQ(a(0, 0), 10.5);
}

TEST(MatrixTest, AddRowVectorAndColSum) {
  Matrix m(2, 2, {1, 2, 3, 4});
  Matrix v(1, 2, {10, 20});
  m.AddRowVector(v);
  EXPECT_DOUBLE_EQ(m(0, 0), 11);
  EXPECT_DOUBLE_EQ(m(1, 1), 24);
  Matrix cs(1, 2, {1, 2});
  cs.AddColSumOf(m);
  EXPECT_DOUBLE_EQ(cs(0, 0), 25);
  EXPECT_DOUBLE_EQ(cs(0, 1), 48);
}

TEST(MatrixTest, SquaredNorm) {
  Matrix m(1, 3, {1, 2, 2});
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 9.0);
}

TEST(Tensor3Test, IndexingAndLanes) {
  Tensor3 t(2, 3, 4, 0.0);
  t(1, 2, 3) = 7.0;
  EXPECT_DOUBLE_EQ(t(1, 2, 3), 7.0);
  EXPECT_DOUBLE_EQ(t.lane(1, 2)[3], 7.0);
}

TEST(LossTest, MseValueAndGrad) {
  Matrix pred(2, 1, {1.0, 3.0});
  Matrix target(2, 1, {0.0, 5.0});
  Matrix grad;
  double loss = MSELoss(pred, target, &grad);
  EXPECT_NEAR(loss, (1.0 + 4.0) / 2.0, 1e-12);
  EXPECT_NEAR(grad(0, 0), 2.0 * 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(grad(1, 0), 2.0 * -2.0 / 2.0, 1e-12);
}

TEST(LossTest, BceMatchesHandComputed) {
  Matrix logits(1, 1, {0.0});
  Matrix ones(1, 1, {1.0});
  Matrix grad;
  double loss = BCEWithLogitsLoss(logits, ones, &grad);
  EXPECT_NEAR(loss, std::log(2.0), 1e-12);        // -log sigmoid(0)
  EXPECT_NEAR(grad(0, 0), 0.5 - 1.0, 1e-12);      // sigmoid(0) - 1
}

TEST(LossTest, BceStableForHugeLogits) {
  Matrix logits(1, 2, {1000.0, -1000.0});
  Matrix targets(1, 2, {1.0, 0.0});
  Matrix grad;
  double loss = BCEWithLogitsLoss(logits, targets, &grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(LossTest, GeneratorLossGradSigns) {
  // With a low fake logit, the non-saturating loss pushes the logit up.
  Matrix logits(1, 1, {-3.0});
  Matrix grad;
  double loss = GeneratorGanLoss(logits, &grad);
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(grad(0, 0), 0.0);  // gradient descent increases the logit
}

TEST(LossTest, SaturatingGeneratorLossFiniteGradVanishes) {
  // The saturating variant has a near-zero gradient for very low logits —
  // the well-known failure mode the non-saturating loss avoids.
  Matrix low(1, 1, {-20.0});
  Matrix grad_low;
  GeneratorGanLossSaturating(low, &grad_low);
  Matrix grad_ns;
  GeneratorGanLoss(low, &grad_ns);
  EXPECT_LT(std::fabs(grad_low(0, 0)), 1e-6);
  EXPECT_GT(std::fabs(grad_ns(0, 0)), 0.5);
}

TEST(LossTest, NumericalGradMse) {
  Matrix pred(2, 2, {0.3, -0.7, 1.2, 0.1});
  Matrix target(2, 2, {0.0, 0.5, 1.0, -0.2});
  Matrix grad;
  MSELoss(pred, target, &grad);
  double eps = 1e-6;
  for (size_t i = 0; i < pred.size(); ++i) {
    Matrix p2 = pred;
    p2.data()[i] += eps;
    double lp = MSELoss(p2, target, nullptr);
    p2.data()[i] -= 2 * eps;
    double lm = MSELoss(p2, target, nullptr);
    EXPECT_NEAR(grad.data()[i], (lp - lm) / (2 * eps), 1e-6);
  }
}

TEST(LossTest, NumericalGradBce) {
  Matrix logits(2, 2, {0.3, -0.7, 1.2, 0.1});
  Matrix target(2, 2, {1.0, 0.0, 1.0, 0.0});
  Matrix grad;
  BCEWithLogitsLoss(logits, target, &grad);
  double eps = 1e-6;
  for (size_t i = 0; i < logits.size(); ++i) {
    Matrix l2 = logits;
    l2.data()[i] += eps;
    double lp = BCEWithLogitsLoss(l2, target, nullptr);
    l2.data()[i] -= 2 * eps;
    double lm = BCEWithLogitsLoss(l2, target, nullptr);
    EXPECT_NEAR(grad.data()[i], (lp - lm) / (2 * eps), 1e-6);
  }
}

// Shape contracts are DBAUGUR_CHECK-tier: they must abort in every build
// type, including the default Release (-DNDEBUG) one this test runs under.
TEST(MatrixDeathTest, ShapeMismatchAbortsInEveryBuildType) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_DEATH(a.Add(b), "Matrix::Add shape mismatch: 2x3 vs 3x2");
  Matrix c;
  EXPECT_DEATH(c.MatMulInto(a, a),
               "lhs=3 rhs=2 \\| Matrix::MatMul inner dimensions");
  EXPECT_DEATH(Matrix(2, 2, {1.0, 2.0, 3.0}),
               "Matrix data does not match shape 2x2");
}

TEST(LossDeathTest, ShapeMismatchAborts) {
  Matrix pred(2, 2), target(2, 3);
  EXPECT_DEATH(MSELoss(pred, target, nullptr), "MSELoss shape mismatch");
  EXPECT_DEATH(BCEWithLogitsLoss(pred, target, nullptr),
               "BCEWithLogitsLoss shape mismatch");
}

}  // namespace
}  // namespace dbaugur::nn
