// Verifies the zero-allocation contracts: after a warm-up pass,
// steady-state Forward/Backward on every layer type performs no heap
// allocation, and neither does recording a statement whose SQL template is
// already registered.
//
// A global operator new/delete override counts allocations. This is safe to
// do in exactly one test binary (the override is process-wide); gtest's own
// bookkeeping allocates, so counting is explicitly scoped between
// ResetAllocCount/AllocCount pairs with no gtest assertions in between.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "models/lstm_forecaster.h"
#include "models/mlp.h"
#include "models/tcn.h"
#include "models/wfgan.h"
#include "nn/attention.h"
#include "nn/conv1d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/matrix.h"
#include "sql/templater.h"

namespace {
std::atomic<long> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dbaugur::nn {
namespace {

void ResetAllocCount() { g_alloc_count.store(0, std::memory_order_relaxed); }
long AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng->Uniform(-1.0, 1.0);
  }
  return m;
}

TEST(AllocTest, DenseSteadyStateIsAllocationFree) {
  Rng rng(1);
  Dense layer(13, 7, Activation::kTanh, &rng);
  Matrix x = RandomMatrix(8, 13, &rng);
  Matrix g = RandomMatrix(8, 7, &rng);
  // Warm-up builds the workspaces.
  layer.Forward(x);
  layer.Backward(g);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    layer.Forward(x);
    layer.Backward(g);
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "Dense fwd/bwd allocated " << n << " times";
}

TEST(AllocTest, LstmSteadyStateIsAllocationFree) {
  Rng rng(2);
  LSTM lstm(3, 11, &rng);
  std::vector<Matrix> xs;
  std::vector<Matrix> grads;
  for (int t = 0; t < 5; ++t) {
    xs.push_back(RandomMatrix(4, 3, &rng));
    grads.push_back(RandomMatrix(4, 11, &rng));
  }
  lstm.ForwardSequence(xs);
  lstm.BackwardSequence(grads);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    lstm.ForwardSequence(xs);
    lstm.BackwardSequence(grads);
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "LSTM fwd/bwd allocated " << n << " times";
}

TEST(AllocTest, AttentionSteadyStateIsAllocationFree) {
  Rng rng(3);
  TemporalAttention attn(11, 5, &rng);
  std::vector<Matrix> hs;
  for (int t = 0; t < 5; ++t) hs.push_back(RandomMatrix(4, 11, &rng));
  Matrix dc = RandomMatrix(4, 11, &rng);
  attn.Forward(hs);
  attn.Backward(dc);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    attn.Forward(hs);
    attn.Backward(dc);
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "attention fwd/bwd allocated " << n << " times";
}

TEST(AllocTest, ConvAndTcnBlockSteadyStateIsAllocationFree) {
  Rng rng(4);
  CausalConv1D conv(2, 3, 2, 2, &rng);
  Tensor3 x(4, 2, 16);
  for (size_t b = 0; b < 4; ++b) {
    for (size_t c = 0; c < 2; ++c) {
      double* lane = x.lane(b, c);
      for (size_t t = 0; t < 16; ++t) lane[t] = rng.Uniform(-1.0, 1.0);
    }
  }
  Tensor3 g(4, 3, 16, 0.5);
  conv.Forward(x);
  conv.Backward(g);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    conv.Forward(x);
    conv.Backward(g);
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "conv fwd/bwd allocated " << n << " times";

  TCNBlock block(2, 3, 2, 1, &rng);
  Tensor3 gb(4, 3, 16, 0.25);
  block.Forward(x);
  block.Backward(gb);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    block.Forward(x);
    block.Backward(gb);
  }
  n = AllocCount();
  EXPECT_EQ(n, 0) << "TCN block fwd/bwd allocated " << n << " times";
}

TEST(AllocTest, DenseInputGradIsAllocationFree) {
  Rng rng(6);
  Dense layer(13, 7, Activation::kTanh, &rng);
  Matrix x = RandomMatrix(8, 13, &rng);
  Matrix g = RandomMatrix(8, 7, &rng);
  layer.Forward(x);
  layer.InputGrad(g);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    layer.Forward(x);
    layer.InputGrad(g);
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "Dense InputGrad allocated " << n << " times";
}

// The WFGAN D-step pattern: full pass, backward, reusing pass, backward;
// then the G-step's last-step input gradient.
TEST(AllocTest, LstmPartialPassesAreAllocationFree) {
  Rng rng(7);
  LSTM lstm(1, 11, &rng);
  std::vector<Matrix> xs, xs2, grads;
  for (int t = 0; t < 6; ++t) {
    xs.push_back(RandomMatrix(4, 1, &rng));
    grads.push_back(RandomMatrix(4, 11, &rng));
  }
  xs2 = xs;
  xs2.back() = RandomMatrix(4, 1, &rng);
  auto pass = [&] {
    lstm.ForwardSequence(xs);
    lstm.BackwardSequence(grads);
    lstm.ForwardSequence(xs2, xs2.size() - 1);
    lstm.BackwardSequence(grads);
    lstm.LastStepInputGrad(grads.back());
  };
  pass();
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) pass();
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "LSTM partial passes allocated " << n << " times";
}

TEST(AllocTest, AttentionPartialPassesAreAllocationFree) {
  Rng rng(8);
  TemporalAttention attn(11, 5, &rng);
  std::vector<Matrix> hs, hs2;
  for (int t = 0; t < 6; ++t) hs.push_back(RandomMatrix(4, 11, &rng));
  hs2 = hs;
  hs2.back() = RandomMatrix(4, 11, &rng);
  Matrix dc = RandomMatrix(4, 11, &rng);
  auto pass = [&] {
    attn.Forward(hs);
    attn.Backward(dc);
    attn.Forward(hs2, hs2.size() - 1);
    attn.Backward(dc);
    attn.LastStepInputGrad(dc);
  };
  pass();
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) pass();
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "attention partial passes allocated " << n << " times";
}

TEST(AllocTest, RestrictedConvAndTcnBlockAreAllocationFree) {
  Rng rng(9);
  Tensor3 x(4, 2, 16);
  for (size_t b = 0; b < 4; ++b) {
    for (size_t c = 0; c < 2; ++c) {
      double* lane = x.lane(b, c);
      for (size_t t = 0; t < 16; ++t) lane[t] = rng.Uniform(-1.0, 1.0);
    }
  }
  CausalConv1D conv(2, 3, 2, 2, &rng);
  conv.set_steps({3, 7, 15});
  Tensor3 g(4, 3, 16, 0.5);
  conv.Forward(x);
  conv.Backward(g);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    conv.Forward(x);
    conv.Backward(g);
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "restricted conv fwd/bwd allocated " << n << " times";

  TCNBlock block(2, 3, 2, 4, &rng);
  block.RestrictOutputSteps({15});
  Tensor3 gb(4, 3, 16, 0.25);
  block.Forward(x);
  block.Backward(gb);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    block.Forward(x);
    block.Backward(gb);
  }
  n = AllocCount();
  EXPECT_EQ(n, 0) << "restricted TCN block fwd/bwd allocated " << n
                  << " times";
}

std::vector<double> Wave(size_t n) {
  std::vector<double> s(n);
  for (size_t i = 0; i < n; ++i) {
    s[i] = 10.0 + std::sin(static_cast<double>(i) * 0.3) +
           0.1 * static_cast<double>(i % 7);
  }
  return s;
}

// Allocations of one steady-state epoch (the second) over `n` points.
template <typename Model>
long SecondEpochAllocs(size_t n) {
  models::ForecasterOptions opts;
  opts.window = 12;
  opts.batch_size = 8;
  Model model(opts);
  EXPECT_TRUE(model.PrepareTraining(Wave(n)).ok());
  EXPECT_TRUE(model.TrainEpoch().ok());
  ResetAllocCount();
  const bool ok = model.TrainEpoch().ok();
  long allocs = AllocCount();
  EXPECT_TRUE(ok);
  return allocs;
}

// An epoch may allocate its per-epoch bookkeeping (the shuffled order, the
// parameter lists) but nothing per batch: 8 and 20 batches cost the same.
TEST(AllocTest, WfganAndTcnEpochAllocationsDoNotDependOnBatchCount) {
  const long wfgan_short = SecondEpochAllocs<models::WfganForecaster>(76);
  const long wfgan_long = SecondEpochAllocs<models::WfganForecaster>(172);
  EXPECT_EQ(wfgan_short, wfgan_long);
  const long tcn_short = SecondEpochAllocs<models::TcnForecaster>(76);
  const long tcn_long = SecondEpochAllocs<models::TcnForecaster>(172);
  EXPECT_EQ(tcn_short, tcn_long);
  const long mlp_short = SecondEpochAllocs<models::MlpForecaster>(76);
  const long mlp_long = SecondEpochAllocs<models::MlpForecaster>(172);
  EXPECT_EQ(mlp_short, mlp_long);
  const long lstm_short = SecondEpochAllocs<models::LstmForecaster>(76);
  const long lstm_long = SecondEpochAllocs<models::LstmForecaster>(172);
  EXPECT_EQ(lstm_short, lstm_long);
}

TEST(AllocTest, LossGradReuseIsAllocationFree) {
  Rng rng(5);
  Matrix pred = RandomMatrix(8, 1, &rng);
  Matrix target = RandomMatrix(8, 1, &rng);
  Matrix grad;
  MSELoss(pred, target, &grad);  // warm-up sizes the grad buffer
  BCEWithLogitsLoss(pred, target, &grad);
  ResetAllocCount();
  for (int i = 0; i < 3; ++i) {
    MSELoss(pred, target, &grad);
    BCEWithLogitsLoss(pred, target, &grad);
    GeneratorGanLoss(pred, &grad);
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "loss grads allocated " << n << " times";
}

TEST(AllocTest, KnownTemplateRecordIsAllocationFree) {
  // Every path of the templater: IN-list collapse, operand order, select
  // list, join order and the WHERE conjunct sort.
  const char* const kWarmup[] = {
      "SELECT * FROM trips WHERE route_id = 12345 AND service_day = 'v12345'",
      "SELECT route_id, short_name FROM routes WHERE route_id IN (12345, 67890)",
      "SELECT name, lat, lon FROM Stops WHERE 12345 = route_id;",
      "SELECT s.name, t.arrival FROM stops s JOIN stop_times t ON t.stop_id = "
      "s.stop_id WHERE t.trip_id = 12345 AND t.day > 12345",
      "UPDATE vehicles SET last_seen = 12345.5 WHERE vehicle_id = 12345",
      "SELECT * FROM b INNER JOIN a ON b.x = a.x WHERE c IN () AND d = 1",
  };
  // The same templates, with fresh and shorter literals.
  const char* const kKnown[] = {
      "SELECT * FROM trips WHERE service_day = 'v1' AND route_id = 7",
      "SELECT short_name, route_id FROM routes WHERE route_id IN (3)",
      "select name, lat, lon from stops where route_id = 9",
      "SELECT s.name, t.arrival FROM stops s JOIN stop_times t ON s.stop_id = "
      "t.stop_id WHERE t.day > 4 AND t.trip_id = 5",
      "UPDATE vehicles SET last_seen = 1.5 WHERE vehicle_id = 2",
      "SELECT * FROM a INNER JOIN b ON a.x = b.x WHERE d = 2 AND c IN ()",
  };
  sql::TemplateRegistry reg;
  for (const char* s : kWarmup) ASSERT_TRUE(reg.Record(s).ok()) << s;
  ASSERT_EQ(reg.size(), std::size(kWarmup));
  const std::vector<std::string> known(std::begin(kKnown), std::end(kKnown));
  std::vector<size_t> ids(known.size() * 3);
  ResetAllocCount();
  size_t recorded = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto id = reg.Record(known[i % known.size()]);
    if (id.ok()) ids[recorded++] = *id;
  }
  long n = AllocCount();
  EXPECT_EQ(n, 0) << "recording known templates allocated " << n << " times";
  ASSERT_EQ(recorded, ids.size());
  EXPECT_EQ(reg.size(), std::size(kWarmup));
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i % known.size());
}

}  // namespace
}  // namespace dbaugur::nn
