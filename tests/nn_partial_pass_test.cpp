// Pins every partial pass of the nn layers to the full pass it replaces, bit
// for bit, on every SIMD tier this host supports:
//  * LSTM / attention forwards that reuse the cached steps before
//    `first_step` (the WFGAN fake pass recomputes only its tail),
//  * LSTM / attention last-step input gradients (the WFGAN G-step reads only
//    dLoss/dx_T of the discriminator),
//  * step-restricted CausalConv1D / TCNBlock passes and the TCN dependency
//    cone (the head reads only the last step).
// "Equal" means equal bit patterns (Matrix::BitwiseEqual semantics), so a
// -0.0 where the full pass has +0.0 fails too.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "nn/attention.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/matrix.h"

namespace dbaugur::nn {
namespace {

const size_t kBatches[] = {1, 3, 32};
const size_t kSteps[] = {1, 2, 6, 30};

class PartialPassTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::ResetForcedTier(); }

  // Runs `body` once per supported tier with dispatch forced to it.
  template <typename Body>
  void ForEachTier(Body body) {
    simd::Tier tiers[3];
    const int n = simd::SupportedTiers(tiers);
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(simd::ForceTier(tiers[i]));
      SCOPED_TRACE(simd::TierName(tiers[i]));
      body();
    }
  }
};

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Uniform(-1.0, 1.0);
  return m;
}

std::vector<Matrix> RandomSequence(size_t steps, size_t rows, size_t cols,
                                   Rng* rng) {
  std::vector<Matrix> seq;
  for (size_t t = 0; t < steps; ++t) {
    seq.push_back(RandomMatrix(rows, cols, rng));
  }
  return seq;
}

Tensor3 RandomTensor(size_t batch, size_t channels, size_t time, Rng* rng) {
  Tensor3 x(batch, channels, time);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < channels; ++c) {
      double* lane = x.lane(b, c);
      for (size_t t = 0; t < time; ++t) lane[t] = rng->Uniform(-1.0, 1.0);
    }
  }
  return x;
}

::testing::AssertionResult Same(const Matrix& got, const Matrix& want) {
  if (got.BitwiseEqual(want)) return ::testing::AssertionSuccess();
  if (!got.SameShape(want)) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got.data()[i], &want.data()[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "flat index " << i << ": " << got.data()[i] << " vs "
             << want.data()[i];
    }
  }
  return ::testing::AssertionFailure();
}

::testing::AssertionResult SameAt(const Tensor3& got, const Tensor3& want,
                                  const std::vector<size_t>& steps) {
  if (!got.SameShape(want)) return ::testing::AssertionFailure() << "shape";
  for (size_t b = 0; b < got.batch(); ++b) {
    for (size_t c = 0; c < got.channels(); ++c) {
      for (size_t t : steps) {
        const double x = got(b, c, t);
        const double y = want(b, c, t);
        if (std::memcmp(&x, &y, sizeof(double)) != 0) {
          return ::testing::AssertionFailure()
                 << "(" << b << "," << c << "," << t << "): " << x << " vs "
                 << y;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::vector<size_t> AllSteps(size_t time) {
  std::vector<size_t> steps(time);
  for (size_t t = 0; t < time; ++t) steps[t] = t;
  return steps;
}

// Every third step plus the last one: gaps, a dilation-sized hole and the
// step the TCN head reads.
std::vector<size_t> SomeSteps(size_t time) {
  std::vector<size_t> steps;
  for (size_t t = 1; t + 1 < time; t += 3) steps.push_back(t);
  steps.push_back(time - 1);
  return steps;
}

// Input gradient for a restricted pass: random at `steps`, +0.0 elsewhere.
Tensor3 GradAt(size_t batch, size_t channels, size_t time,
               const std::vector<size_t>& steps, Rng* rng) {
  Tensor3 g(batch, channels, time, 0.0);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < channels; ++c) {
      for (size_t t : steps) g(b, c, t) = rng->Uniform(-1.0, 1.0);
    }
  }
  return g;
}

void ExpectSameGrads(const std::vector<Param>& got,
                     const std::vector<Param>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(Same(*got[i].grad, *want[i].grad)) << got[i].name;
  }
}

std::vector<Matrix> GradCopies(const std::vector<Param>& params) {
  std::vector<Matrix> out;
  for (const Param& p : params) out.push_back(*p.grad);
  return out;
}

struct LstmShape {
  size_t input, hidden;
};
// The WFGAN trunk and a narrow layer whose gates are all vector-tail lanes.
const LstmShape kLstmShapes[] = {{1, 30}, {3, 5}};

TEST_F(PartialPassTest, LstmReusingForwardMatchesFullForward) {
  ForEachTier([] {
    for (const LstmShape& sh : kLstmShapes) {
      for (size_t batch : kBatches) {
        for (size_t steps : kSteps) {
          SCOPED_TRACE(testing::Message() << "input " << sh.input << " hidden "
                                          << sh.hidden << " batch " << batch
                                          << " T " << steps);
          Rng init_a(11), init_b(11), data(12);
          LSTM a(sh.input, sh.hidden, &init_a);
          LSTM b(sh.input, sh.hidden, &init_b);
          std::vector<Matrix> xs =
              RandomSequence(steps, batch, sh.input, &data);
          std::vector<Matrix> xs2 = xs;
          xs2.back() = RandomMatrix(batch, sh.input, &data);
          std::vector<Matrix> g0 =
              RandomSequence(steps, batch, sh.hidden, &data);
          std::vector<Matrix> g =
              RandomSequence(steps, batch, sh.hidden, &data);
          // The WFGAN D-step order: a full pass and its backward, then the
          // pass that differs only in its last step.
          a.ForwardSequence(xs);
          a.BackwardSequence(g0);
          std::vector<Matrix> hs_a = a.ForwardSequence(xs2, steps - 1);
          b.ForwardSequence(xs);
          b.BackwardSequence(g0);
          std::vector<Matrix> hs_b = b.ForwardSequence(xs2);
          ASSERT_EQ(hs_a.size(), hs_b.size());
          for (size_t t = 0; t < steps; ++t) {
            EXPECT_TRUE(Same(hs_a[t], hs_b[t])) << "h_" << t;
          }
          std::vector<Matrix> dxs_a = a.BackwardSequence(g);
          const std::vector<Matrix>& dxs_b = b.BackwardSequence(g);
          for (size_t t = 0; t < steps; ++t) {
            EXPECT_TRUE(Same(dxs_a[t], dxs_b[t])) << "dx_" << t;
          }
          ExpectSameGrads(a.Params(), b.Params());
        }
      }
    }
  });
}

TEST_F(PartialPassTest, LstmLastStepInputGradMatchesFullBackward) {
  ForEachTier([] {
    for (const LstmShape& sh : kLstmShapes) {
      for (size_t batch : kBatches) {
        for (size_t steps : kSteps) {
          SCOPED_TRACE(testing::Message() << "input " << sh.input << " hidden "
                                          << sh.hidden << " batch " << batch
                                          << " T " << steps);
          Rng init(21), data(22);
          LSTM lstm(sh.input, sh.hidden, &init);
          std::vector<Matrix> xs =
              RandomSequence(steps, batch, sh.input, &data);
          std::vector<Matrix> g =
              RandomSequence(steps, batch, sh.hidden, &data);
          lstm.ForwardSequence(xs);
          const Matrix full = lstm.BackwardSequence(g).back();
          const std::vector<Matrix> grads = GradCopies(lstm.Params());
          EXPECT_TRUE(Same(lstm.LastStepInputGrad(g.back()), full));
          // No parameter gradient moves.
          std::vector<Param> params = lstm.Params();
          for (size_t i = 0; i < params.size(); ++i) {
            EXPECT_TRUE(Same(*params[i].grad, grads[i])) << params[i].name;
          }
        }
      }
    }
  });
}

struct AttnShape {
  size_t hidden, attn;
};
const AttnShape kAttnShapes[] = {{30, 16}, {5, 3}};

TEST_F(PartialPassTest, AttentionReusingForwardMatchesFullForward) {
  ForEachTier([] {
    for (const AttnShape& sh : kAttnShapes) {
      for (size_t batch : kBatches) {
        for (size_t steps : kSteps) {
          SCOPED_TRACE(testing::Message() << "hidden " << sh.hidden << " attn "
                                          << sh.attn << " batch " << batch
                                          << " T " << steps);
          Rng init_a(31), init_b(31), data(32);
          TemporalAttention a(sh.hidden, sh.attn, &init_a);
          TemporalAttention b(sh.hidden, sh.attn, &init_b);
          std::vector<Matrix> hs =
              RandomSequence(steps, batch, sh.hidden, &data);
          std::vector<Matrix> hs2 = hs;
          hs2.back() = RandomMatrix(batch, sh.hidden, &data);
          Matrix dc0 = RandomMatrix(batch, sh.hidden, &data);
          Matrix dc = RandomMatrix(batch, sh.hidden, &data);
          a.Forward(hs);
          a.Backward(dc0);
          Matrix ctx_a = a.Forward(hs2, steps - 1);
          b.Forward(hs);
          b.Backward(dc0);
          EXPECT_TRUE(Same(ctx_a, b.Forward(hs2)));
          EXPECT_TRUE(Same(a.last_weights(), b.last_weights()));
          std::vector<Matrix> dhs_a = a.Backward(dc);
          const std::vector<Matrix>& dhs_b = b.Backward(dc);
          for (size_t t = 0; t < steps; ++t) {
            EXPECT_TRUE(Same(dhs_a[t], dhs_b[t])) << "dh_" << t;
          }
          ExpectSameGrads(a.Params(), b.Params());
        }
      }
    }
  });
}

TEST_F(PartialPassTest, AttentionLastStepInputGradMatchesFullBackward) {
  ForEachTier([] {
    for (const AttnShape& sh : kAttnShapes) {
      for (size_t batch : kBatches) {
        for (size_t steps : kSteps) {
          SCOPED_TRACE(testing::Message() << "hidden " << sh.hidden << " attn "
                                          << sh.attn << " batch " << batch
                                          << " T " << steps);
          Rng init(41), data(42);
          TemporalAttention attn(sh.hidden, sh.attn, &init);
          std::vector<Matrix> hs =
              RandomSequence(steps, batch, sh.hidden, &data);
          Matrix dc = RandomMatrix(batch, sh.hidden, &data);
          attn.Forward(hs);
          const Matrix full = attn.Backward(dc).back();
          const std::vector<Matrix> grads = GradCopies(attn.Params());
          EXPECT_TRUE(Same(attn.LastStepInputGrad(dc), full));
          std::vector<Param> params = attn.Params();
          for (size_t i = 0; i < params.size(); ++i) {
            EXPECT_TRUE(Same(*params[i].grad, grads[i])) << params[i].name;
          }
        }
      }
    }
  });
}

struct ConvShape {
  size_t in, out;
};
// The first TCN block's 1 -> 16 and the later blocks' 16 -> 16.
const ConvShape kConvShapes[] = {{1, 16}, {16, 16}};

TEST_F(PartialPassTest, RestrictedConvMatchesAllStepsConv) {
  ForEachTier([] {
    for (const ConvShape& sh : kConvShapes) {
      for (size_t kernel : {2u, 3u}) {
        for (size_t batch : kBatches) {
          for (size_t steps : kSteps) {
            // A dilation >= T leaves only the current step in range.
            for (size_t dilation : {size_t{1}, size_t{2}, steps}) {
              SCOPED_TRACE(testing::Message()
                           << sh.in << "->" << sh.out << " kernel " << kernel
                           << " dilation " << dilation << " batch " << batch
                           << " T " << steps);
              Rng init_a(51), init_b(51), data(52);
              CausalConv1D full(sh.in, sh.out, kernel, dilation, &init_a);
              CausalConv1D part(sh.in, sh.out, kernel, dilation, &init_b);
              const std::vector<size_t> at = SomeSteps(steps);
              part.set_steps(at);
              Tensor3 x = RandomTensor(batch, sh.in, steps, &data);
              EXPECT_TRUE(SameAt(part.Forward(x), full.Forward(x), at));
              Tensor3 g = GradAt(batch, sh.out, steps, at, &data);
              const Tensor3 dx_full = full.Backward(g);
              EXPECT_TRUE(SameAt(part.Backward(g), dx_full, AllSteps(steps)));
              ExpectSameGrads(part.Params(), full.Params());
            }
          }
        }
      }
    }
  });
}

TEST_F(PartialPassTest, RestrictedTcnBlockMatchesAllStepsBlock) {
  ForEachTier([] {
    // 1 -> 4 has a downsample skip, 4 -> 4 the identity skip.
    for (size_t in : {1u, 4u}) {
      for (size_t kernel : {2u, 3u}) {
        for (size_t batch : kBatches) {
          for (size_t steps : kSteps) {
            for (size_t dilation : {size_t{1}, size_t{2}, steps}) {
              SCOPED_TRACE(testing::Message()
                           << in << "->4 kernel " << kernel << " dilation "
                           << dilation << " batch " << batch << " T " << steps);
              Rng init_a(61), init_b(61), data(62);
              TCNBlock full(in, 4, kernel, dilation, &init_a);
              TCNBlock part(in, 4, kernel, dilation, &init_b);
              const std::vector<size_t> at = SomeSteps(steps);
              part.RestrictOutputSteps(at);
              Tensor3 x = RandomTensor(batch, in, steps, &data);
              EXPECT_TRUE(SameAt(part.Forward(x), full.Forward(x), at));
              Tensor3 g = GradAt(batch, 4, steps, at, &data);
              const Tensor3 dx_full = full.Backward(g);
              EXPECT_TRUE(SameAt(part.Backward(g), dx_full, AllSteps(steps)));
              ExpectSameGrads(part.Params(), full.Params());
            }
          }
        }
      }
    }
  });
}

// The TCN forecaster's stack (dilations 1..16, the head on the last step):
// restricting every block to the last step's dependency cone leaves the last
// output, every parameter gradient and the input gradient unchanged —
// including a window longer than the receptive field, whose earliest inputs
// are never read.
TEST_F(PartialPassTest, TcnDependencyConeMatchesAllStepsStack) {
  const std::vector<size_t> dilations = {1, 2, 4, 8, 16};
  ForEachTier([&] {
    for (size_t kernel : {2u, 3u}) {
      for (size_t window : {6u, 30u, 70u}) {
        for (size_t batch : kBatches) {
          SCOPED_TRACE(testing::Message() << "kernel " << kernel << " window "
                                          << window << " batch " << batch);
          Rng init_a(71), init_b(71), data(72);
          std::vector<std::unique_ptr<TCNBlock>> full, part;
          size_t in = 1;
          for (size_t d : dilations) {
            full.push_back(
                std::make_unique<TCNBlock>(in, 4, kernel, d, &init_a));
            part.push_back(
                std::make_unique<TCNBlock>(in, 4, kernel, d, &init_b));
            in = 4;
          }
          std::vector<size_t> cone = {window - 1};
          for (size_t b = part.size(); b-- > 0;) {
            cone = part[b]->RestrictOutputSteps(cone);
          }
          // The earliest input step the head depends on.
          const size_t reach = 2 * (kernel - 1) * 31;
          EXPECT_EQ(cone.front(), window - 1 > reach ? window - 1 - reach : 0);

          Tensor3 x = RandomTensor(batch, 1, window, &data);
          const Tensor3* yf = &x;
          const Tensor3* yp = &x;
          for (size_t b = 0; b < full.size(); ++b) {
            yf = &full[b]->Forward(*yf);
            yp = &part[b]->Forward(*yp);
          }
          EXPECT_TRUE(SameAt(*yp, *yf, {window - 1}));
          Tensor3 g = GradAt(batch, 4, window, {window - 1}, &data);
          const Tensor3* df = &g;
          const Tensor3* dp = &g;
          for (size_t b = full.size(); b-- > 0;) {
            df = &full[b]->Backward(*df);
            dp = &part[b]->Backward(*dp);
            ExpectSameGrads(part[b]->Params(), full[b]->Params());
          }
          EXPECT_TRUE(SameAt(*dp, *df, AllSteps(window)));
        }
      }
    }
  });
}

// The reuse contracts: a shape mismatch is CHECK-tier (aborts in every
// build), a changed reused input DCHECK-tier; bad step sets are rejected.
TEST(PartialPassDeathTest, ContractViolationsAbort) {
  Rng rng(81);
  LSTM lstm(1, 4, &rng);
  TemporalAttention attn(4, 3, &rng);
  std::vector<Matrix> xs = RandomSequence(3, 2, 1, &rng);
  std::vector<Matrix> hs = RandomSequence(3, 2, 4, &rng);
  lstm.ForwardSequence(xs);
  attn.Forward(hs);
  std::vector<Matrix> longer = RandomSequence(4, 2, 1, &rng);
  EXPECT_DEATH(lstm.ForwardSequence(longer, 2), "reuses steps \\[0, 2\\)");
  EXPECT_DEATH(attn.Forward(RandomSequence(4, 2, 4, &rng), 2),
               "reuses steps \\[0, 2\\)");
#if DBAUGUR_DCHECKS_ENABLED
  std::vector<Matrix> changed = xs;
  changed[0](1, 0) += 1.0;
  EXPECT_DEATH(lstm.ForwardSequence(changed, 2), "reused step 0 differs");
  std::vector<Matrix> changed_hs = hs;
  changed_hs[1](0, 3) += 1.0;
  EXPECT_DEATH(attn.Forward(changed_hs, 2), "reused step 1 differs");
#endif
  CausalConv1D conv(1, 2, 2, 1, &rng);
  EXPECT_DEATH(conv.set_steps({3, 1}), "ascending and distinct");
  conv.set_steps({1, 5});
  EXPECT_DEATH(conv.Forward(RandomTensor(2, 1, 4, &rng)),
               "beyond the input's time length");
}

// ReleaseWorkspaces forgets the cached pass: a partial pass or a backward
// that would read the freed caches aborts, and a full pass re-sizes them and
// computes the same bits as before the release.
TEST(PartialPassDeathTest, ReleasedWorkspacesRejectPassesThatReadThem) {
  Rng rng(82);
  LSTM lstm(1, 4, &rng);
  TemporalAttention attn(4, 3, &rng);
  Dense dense(4, 1, Activation::kIdentity, &rng);
  TCNBlock block(1, 2, 2, 1, &rng);
  CausalConv1D conv(1, 2, 2, 1, &rng);
  const std::vector<Matrix> xs = RandomSequence(3, 2, 1, &rng);
  const std::vector<Matrix> hs = RandomSequence(3, 2, 4, &rng);
  const Tensor3 x = RandomTensor(2, 1, 5, &rng);
  const Matrix h_last = lstm.ForwardSequence(xs).back();
  const Matrix context = attn.Forward(hs);
  const Matrix y = dense.Forward(hs[0]);
  const Tensor3 out = block.Forward(x);
  const Tensor3 conv_out = conv.Forward(x);
  lstm.ReleaseWorkspaces();
  attn.ReleaseWorkspaces();
  dense.ReleaseWorkspaces();
  block.ReleaseWorkspaces();
  conv.ReleaseWorkspaces();

  EXPECT_DEATH(lstm.ForwardSequence(xs, 2), "reuses steps \\[0, 2\\)");
  EXPECT_DEATH(lstm.BackwardSequence(hs), "gradient count does not match");
  EXPECT_DEATH(lstm.LastStepInputGrad(hs[0]), "needs a cached forward pass");
  EXPECT_DEATH(attn.Forward(hs, 2), "reuses steps \\[0, 2\\)");
  EXPECT_DEATH(attn.LastStepInputGrad(context),
               "needs a cached forward pass");
  EXPECT_DEATH(dense.Backward(y), "does not match forward output");
  EXPECT_DEATH(block.Backward(out), "does not match the forward output");
  EXPECT_DEATH(conv.Backward(conv_out), "does not match forward output");

  EXPECT_TRUE(Same(lstm.ForwardSequence(xs).back(), h_last));
  EXPECT_TRUE(Same(attn.Forward(hs), context));
  EXPECT_TRUE(Same(dense.Forward(hs[0]), y));
  const Tensor3& again = block.Forward(x);
  EXPECT_TRUE(SameAt(again, out, {0, 1, 2, 3, 4}));
  EXPECT_TRUE(SameAt(conv.Forward(x), conv_out, {0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace dbaugur::nn
