// Tests for the optimizer and end-to-end layer training dynamics.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "models/neural_common.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"

namespace dbaugur::nn {
namespace {

TEST(AdamTest, FirstStepIsLearningRateSized) {
  // With bias correction, Adam's first step is ~lr * sign(grad).
  Matrix v(1, 2, {0.0, 0.0});
  Matrix g(1, 2, {3.0, -0.01});
  std::vector<Param> params = {{&v, &g, "p"}};
  Adam adam(0.1);
  adam.Step(params);
  EXPECT_NEAR(v(0, 0), -0.1, 1e-6);
  EXPECT_NEAR(v(0, 1), 0.1, 1e-4);
}

TEST(AdamTest, MinimizesQuadratic) {
  // f(x) = (x - 3)^2; gradient 2(x-3).
  Matrix v(1, 1, {-5.0});
  Matrix g(1, 1);
  std::vector<Param> params = {{&v, &g, "x"}};
  Adam adam(0.2);
  for (int i = 0; i < 300; ++i) {
    g(0, 0) = 2.0 * (v(0, 0) - 3.0);
    adam.Step(params);
  }
  EXPECT_NEAR(v(0, 0), 3.0, 0.05);
}

TEST(AdamTest, RebindsWhenParamSetChanges) {
  Matrix v(1, 1, {0.0});
  Matrix g(1, 1, {1.0});
  std::vector<Param> params = {{&v, &g, "x"}};
  Adam adam(0.1);
  adam.Step(params);
  // Different shape list: optimizer must re-initialize, not crash.
  Matrix v2(2, 2, 0.0);
  Matrix g2(2, 2, 1.0);
  std::vector<Param> params2 = {{&v2, &g2, "y"}};
  adam.Step(params2);
  EXPECT_NEAR(v2(0, 0), -0.1, 1e-6);
}

TEST(DenseTrainingTest, LearnsLinearMap) {
  // y = 2x1 - x2 + 0.5, one Dense(2,1,identity) trained with Adam+MSE.
  Rng rng(5);
  Dense layer(2, 1, Activation::kIdentity, &rng);
  Adam adam(0.05);
  auto params = layer.Params();
  for (int step = 0; step < 500; ++step) {
    Matrix x(8, 2);
    Matrix y(8, 1);
    for (size_t r = 0; r < 8; ++r) {
      x(r, 0) = rng.Gaussian();
      x(r, 1) = rng.Gaussian();
      y(r, 0) = 2.0 * x(r, 0) - x(r, 1) + 0.5;
    }
    Matrix pred = layer.Forward(x);
    Matrix grad;
    MSELoss(pred, y, &grad);
    layer.ZeroGrad();
    layer.Backward(grad);
    adam.Step(params);
  }
  EXPECT_NEAR(layer.weight()(0, 0), 2.0, 0.05);
  EXPECT_NEAR(layer.weight()(1, 0), -1.0, 0.05);
  EXPECT_NEAR(layer.bias()(0, 0), 0.5, 0.05);
}

TEST(LstmTrainingTest, LearnsToSumSequence) {
  // Target: sum of a length-5 input sequence. LSTM(1->8) + Dense(8->1).
  Rng rng(7);
  LSTM lstm(1, 8, &rng);
  Dense head(8, 1, Activation::kIdentity, &rng);
  Adam adam(0.01);
  std::vector<Param> params = lstm.Params();
  for (auto& p : head.Params()) params.push_back(p);
  double final_loss = 1e9;
  for (int step = 0; step < 800; ++step) {
    std::vector<Matrix> xs(5, Matrix(16, 1));
    Matrix y(16, 1);
    for (size_t r = 0; r < 16; ++r) {
      double sum = 0;
      for (size_t t = 0; t < 5; ++t) {
        double v = rng.Uniform(-0.5, 0.5);
        xs[t](r, 0) = v;
        sum += v;
      }
      y(r, 0) = sum;
    }
    auto hs = lstm.ForwardSequence(xs);
    Matrix pred = head.Forward(hs.back());
    Matrix grad;
    final_loss = MSELoss(pred, y, &grad);
    for (auto& p : params) p.grad->Fill(0.0);
    Matrix dh = head.Backward(grad);
    std::vector<Matrix> grad_hs(hs.size(), Matrix(16, 8));
    grad_hs.back() = dh;
    lstm.BackwardSequence(grad_hs);
    ClipGradNorm(params, 5.0);
    adam.Step(params);
  }
  // Variance of the target is 5/12 ~ 0.42; the net must beat that hugely.
  EXPECT_LT(final_loss, 0.02);
}

TEST(NeuralCommonTest, BatchLayouts) {
  std::vector<ts::WindowSample> samples(3);
  for (size_t i = 0; i < 3; ++i) {
    samples[i].window = {static_cast<double>(i), static_cast<double>(i + 1)};
    samples[i].target = static_cast<double>(10 * i);
  }
  std::vector<size_t> idx = {2, 0, 1};
  Matrix xb;
  Matrix yb;
  models::BatchWindowsInto(samples, idx, 0, 3, &xb);
  models::BatchTargetsInto(samples, idx, 0, 3, &yb);
  EXPECT_DOUBLE_EQ(xb(0, 0), 2.0);  // sample 2 first
  EXPECT_DOUBLE_EQ(xb(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(yb(0, 0), 20.0);
  std::vector<Matrix> tm;
  models::ToTimeMajorInto(xb, &tm);
  ASSERT_EQ(tm.size(), 2u);
  EXPECT_DOUBLE_EQ(tm[0](0, 0), 2.0);
  EXPECT_DOUBLE_EQ(tm[1](2, 0), 2.0);
  Tensor3 t3;
  models::ToTensor3Into(xb, &t3);
  EXPECT_EQ(t3.batch(), 3u);
  EXPECT_EQ(t3.channels(), 1u);
  EXPECT_EQ(t3.time(), 2u);
  EXPECT_DOUBLE_EQ(t3(0, 0, 0), 2.0);
}

TEST(NeuralCommonTest, ScaledDatasetInvertsToRaw) {
  std::vector<double> series = {10, 20, 30, 40, 50, 60, 70, 80};
  models::ForecasterOptions opts;
  opts.window = 3;
  opts.horizon = 1;
  auto ds = models::BuildScaledDataset(series, opts);
  ASSERT_TRUE(ds.ok());
  for (const auto& s : ds->samples) {
    for (double w : s.window) {
      EXPECT_GE(w, 0.0);
      EXPECT_LE(w, 1.0);
    }
    EXPECT_NEAR(ds->scaler.Inverse(s.target), series[s.target_index], 1e-9);
  }
}

}  // namespace
}  // namespace dbaugur::nn
