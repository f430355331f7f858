// Tests for the fit stage of core::BuildTrainedState and for the training
// buffers a fitted neural model frees.
//
// FitTasksTest: the fits run as one job per (member, cluster) pair, which
// lanes step one epoch at a time. Every rank's fit_status, SaveState bytes
// and NextClusterValue bits must not depend on the lane count, on who owns
// the pool or on another build sharing it; a latched cancel token stops the
// build with no model; a failed member leaves its cluster without a model
// and every other cluster as it was.
//
// FitReleaseTest: WFGAN, TCN, MLP and LSTM end Fit by freeing their dataset
// and their batch- and step-shaped buffers. At the paper shape the heap a
// fitted model keeps stays under 1 MB, and its predictions and state equal,
// bit for bit, those of the same model trained epoch by epoch, which frees
// nothing.
//
// ResumableFitTest: the same four models fit one epoch per FitStep, and a
// SuspendFit between steps leaves the dataset and little else without
// changing a bit of the result; every other model takes one step.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dbaugur.h"
#include "ensemble/presets.h"
#include "ensemble/shared_member.h"
#include "heap_in_use.h"
#include "models/arima.h"
#include "models/kernel_regression.h"
#include "models/linear_regression.h"
#include "models/lstm_forecaster.h"
#include "models/mlp.h"
#include "models/neural_common.h"
#include "models/tcn.h"
#include "models/wfgan.h"


namespace dbaugur::core {
namespace {

constexpr size_t kMembers = 3;  // WFGAN, TCN, MLP

// Paper-shaped forecaster (window 30, batch 32) with short training so the
// lane sweep stays quick under the sanitizers.
DBAugurOptions PaperOptions(size_t threads) {
  DBAugurOptions o;
  o.forecaster.window = 30;
  o.forecaster.horizon = 1;
  o.forecaster.epochs = 2;
  o.forecaster.batch_size = 32;
  o.forecaster.seed = 7;
  o.clustering.radius = 2.0;
  o.clustering.min_size = 3;
  o.clustering.dtw.window = 4;
  o.clustering.threads = threads;
  o.top_k = 5;
  o.tolerate_fit_failures = true;
  return o;
}

// One shape per family, all distinct under z-normalized DTW.
double Shape(size_t family, size_t t) {
  const double x = static_cast<double>(t);
  switch (family) {
    case 0:
      return std::sin(2.0 * std::numbers::pi * x / 24.0);
    case 1:
      return (t / 10) % 2 == 0 ? 1.0 : -1.0;
    case 2:
      return static_cast<double>(t % 16) / 16.0;
    case 3:
      return x / 80.0 + 0.1 * std::sin(2.0 * std::numbers::pi * x / 7.0);
    default:
      return std::exp(-std::pow((x - 40.0) / 6.0, 2.0));
  }
}

// `families` clusters of four traces each: one shape at four scales, with
// a little seeded noise.
std::vector<ts::Series> FamilyTraces(size_t families, size_t length) {
  Rng rng(2024);
  std::vector<ts::Series> traces;
  for (size_t f = 0; f < families; ++f) {
    for (size_t m = 0; m < 4; ++m) {
      std::vector<double> v(length);
      const double scale = 10.0 * static_cast<double>(f + 1) +
                           2.0 * static_cast<double>(m);
      for (size_t t = 0; t < length; ++t) {
        v[t] = scale * (2.0 + Shape(f, t)) + 0.01 * rng.Gaussian();
      }
      traces.emplace_back(0, 600, std::move(v),
                          "f" + std::to_string(f) + "m" + std::to_string(m));
    }
  }
  return traces;
}

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// What a build publishes per rank: status, model state and next value.
struct RankResult {
  Status status;
  std::vector<uint8_t> state;
  uint64_t next_bits = 0;
};

std::vector<RankResult> Summarize(const TrainedState& st, size_t window) {
  std::vector<RankResult> out;
  for (const ClusterForecast& cf : st.forecasts) {
    RankResult r;
    r.status = cf.fit_status;
    if (cf.model != nullptr) {
      auto state = cf.model->SaveState();
      EXPECT_TRUE(state.ok()) << state.status().ToString();
      if (state.ok()) r.state = std::move(state).value();
      auto next = NextClusterValue(cf, window);
      EXPECT_TRUE(next.ok()) << next.status().ToString();
      if (next.ok()) r.next_bits = Bits(*next);
    }
    out.push_back(std::move(r));
  }
  return out;
}

void ExpectSameResults(const std::vector<RankResult>& got,
                       const std::vector<RankResult>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t rank = 0; rank < got.size(); ++rank) {
    EXPECT_EQ(got[rank].status.code(), want[rank].status.code())
        << what << " rank " << rank;
    EXPECT_EQ(got[rank].status.message(), want[rank].status.message())
        << what << " rank " << rank;
    EXPECT_TRUE(got[rank].state == want[rank].state)
        << what << " rank " << rank << ": SaveState bytes differ";
    EXPECT_EQ(got[rank].next_bits, want[rank].next_bits)
        << what << " rank " << rank;
  }
}

// The same build serially, on a caller pool and on a per-call pool, at
// lanes 1, 2, 3, 4 and 8, must publish the same bits.
void ExpectLaneInvariant(size_t families, size_t expected_clusters) {
  const std::vector<ts::Series> traces = FamilyTraces(families, 80);
  auto serial = BuildTrainedState(PaperOptions(1), traces, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->forecasts.size(), expected_clusters);
  const std::vector<RankResult> want = Summarize(*serial, 30);
  for (const RankResult& r : want) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_FALSE(r.state.empty());
  }
  for (size_t lanes : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(lanes);
    auto on_pool = BuildTrainedState(PaperOptions(lanes), traces, &pool);
    ASSERT_TRUE(on_pool.ok()) << on_pool.status().ToString();
    ExpectSameResults(Summarize(*on_pool, 30), want,
                      "caller pool, lanes " + std::to_string(lanes));
    auto per_call = BuildTrainedState(PaperOptions(lanes), traces, nullptr);
    ASSERT_TRUE(per_call.ok()) << per_call.status().ToString();
    ExpectSameResults(Summarize(*per_call, 30), want,
                      "per-call pool, lanes " + std::to_string(lanes));
  }
}

TEST(FitTasksTest, FiveClustersPublishTheSameBitsAtEveryLaneCount) {
  ExpectLaneInvariant(5, 5);
}

TEST(FitTasksTest, TwoClustersPublishTheSameBitsWithMoreLanesThanTasks) {
  ExpectLaneInvariant(2, 2);
}

TEST(FitTasksTest, TwoBuildsSharingAPoolWithFewerLanesThanClustersMatchSerial) {
  // The sharded service's shape: concurrent shard builds share one fit pool.
  // Two builds of 5 clusters (15 jobs each) time-share 3 lanes.
  const std::vector<ts::Series> traces = FamilyTraces(5, 80);
  auto serial = BuildTrainedState(PaperOptions(1), traces, nullptr);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(serial->forecasts.size(), 5u);
  const std::vector<RankResult> want = Summarize(*serial, 30);
  ThreadPool pool(3);
  std::optional<StatusOr<TrainedState>> built[2];
  std::thread other(
      [&] { built[1].emplace(BuildTrainedState(PaperOptions(3), traces, &pool)); });
  built[0].emplace(BuildTrainedState(PaperOptions(3), traces, &pool));
  other.join();
  for (size_t b = 0; b < 2; ++b) {
    ASSERT_TRUE(built[b]->ok()) << built[b]->status().ToString();
    ExpectSameResults(Summarize(**built[b], 30), want,
                      "shared pool, build " + std::to_string(b));
  }
}

TEST(FitTasksTest, EachClusterMatchesASequentialEnsembleFit) {
  const std::vector<ts::Series> traces = FamilyTraces(5, 80);
  const DBAugurOptions opts = PaperOptions(4);
  auto built = BuildTrainedState(opts, traces, nullptr);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  for (const ClusterForecast& cf : built->forecasts) {
    auto model = ensemble::MakeDBAugur(opts.forecaster, opts.delta);
    ASSERT_TRUE(model.ok());
    ASSERT_TRUE((*model)->Fit(cf.representative.values()).ok());
    ASSERT_NE(cf.model, nullptr);
    auto got = cf.model->SaveState();
    auto want = (*model)->SaveState();
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_TRUE(*got == *want) << "cluster " << cf.cluster_id;
  }
}

TEST(FitTasksTest, TokenLatchedBeforeTheFitsCancelsTheBuild) {
  const std::vector<ts::Series> traces = FamilyTraces(5, 80);
  CancelToken token;
  token.Cancel("test: latched before the build");
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto st = BuildTrainedState(PaperOptions(4), traces, p, &token);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.status().code(), StatusCode::kCancelled);
    EXPECT_NE(st.status().message().find("latched before the build"),
              std::string::npos)
        << st.status().ToString();
  }
}

TEST(FitTasksTest, TokenLatchedInsideTheFirstMemberTaskCancelsTheBuild) {
  const std::vector<ts::Series> traces = FamilyTraces(5, 80);
  // A schedule that never fires still counts the member tasks reaching the
  // fault site, so the watcher latches the token once task 0 (rank 0's
  // WFGAN, the longest fit) has started. One lane runs the tasks in order.
  ASSERT_TRUE(fault::Configure("core.fit.member=at:1000000").ok());
  CancelToken token;
  std::atomic<bool> done{false};
  std::thread watcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto stats = fault::Stats("core.fit.member");
      if (stats.ok() && stats->hits > 0) {
        token.Cancel("test: latched inside the first member task");
        return;
      }
      std::this_thread::yield();
    }
  });
  auto st = BuildTrainedState(PaperOptions(1), traces, nullptr, &token);
  done.store(true, std::memory_order_release);
  watcher.join();
  auto stats = fault::Stats("core.fit.member");
  fault::Reset();
  ASSERT_FALSE(st.ok()) << "a build cancelled mid-fit published a state";
  EXPECT_EQ(st.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->hits, 1u);
  // Tasks that saw the latch skipped their fit.
  EXPECT_LT(stats->hits, 5 * kMembers);
}

TEST(FitTasksTest, AFailedMemberLeavesOnlyItsClusterWithoutAModel) {
  const std::vector<ts::Series> traces = FamilyTraces(5, 80);
  auto clean = BuildTrainedState(PaperOptions(1), traces, nullptr);
  ASSERT_TRUE(clean.ok());
  const std::vector<RankResult> want = Summarize(*clean, 30);
  // One lane: fault hit i is task i. Task 1 is rank 1's WFGAN, task 5 + 3
  // rank 3's TCN.
  ASSERT_TRUE(fault::Configure("core.fit.member=at:1,8").ok());
  auto failed = BuildTrainedState(PaperOptions(1), traces, nullptr);
  fault::Reset();
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  ASSERT_EQ(failed->forecasts.size(), 5u);
  for (size_t rank = 0; rank < 5; ++rank) {
    const ClusterForecast& cf = failed->forecasts[rank];
    if (rank == 1 || rank == 3) {
      EXPECT_EQ(cf.fit_status.code(), StatusCode::kInternal) << rank;
      EXPECT_EQ(cf.model, nullptr) << rank;
    } else {
      EXPECT_TRUE(cf.fit_status.ok()) << rank;
    }
  }
  std::vector<RankResult> got = Summarize(*failed, 30);
  for (size_t rank : {0u, 2u, 4u}) {
    EXPECT_TRUE(got[rank].state == want[rank].state) << rank;
    EXPECT_EQ(got[rank].next_bits, want[rank].next_bits) << rank;
  }

  // Without tolerate_fit_failures the build fails with that status.
  DBAugurOptions strict = PaperOptions(1);
  strict.tolerate_fit_failures = false;
  ASSERT_TRUE(fault::Configure("core.fit.member=at:8").ok());
  auto st = BuildTrainedState(strict, traces, nullptr);
  fault::Reset();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.status().code(), StatusCode::kInternal);
}

TEST(FitTasksTest, TracesTooShortToTrainGetTheSequentialFitStatus) {
  // 20 points cannot fill one window of 30: every member fails to fit.
  const std::vector<ts::Series> traces = FamilyTraces(5, 20);
  for (size_t lanes : {1u, 4u}) {
    const DBAugurOptions opts = PaperOptions(lanes);
    auto st = BuildTrainedState(opts, traces, nullptr);
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    ASSERT_FALSE(st->forecasts.empty());
    for (const ClusterForecast& cf : st->forecasts) {
      auto model = ensemble::MakeDBAugur(opts.forecaster, opts.delta);
      ASSERT_TRUE(model.ok());
      const Status want = (*model)->Fit(cf.representative.values());
      ASSERT_FALSE(want.ok());
      EXPECT_EQ(cf.fit_status.code(), want.code()) << "lanes " << lanes;
      EXPECT_EQ(cf.fit_status.message(), want.message()) << "lanes " << lanes;
      EXPECT_EQ(cf.model, nullptr);
    }
    DBAugurOptions strict = opts;
    strict.tolerate_fit_failures = false;
    auto failed = BuildTrainedState(strict, traces, nullptr);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), st->forecasts[0].fit_status.code());
  }
}

// --- Fitted models free their training buffers. -----------------------------

// The paper's shape: window 30, batch 32, 3 epochs, 580 points.
models::ForecasterOptions PaperModelOptions() {
  models::ForecasterOptions o;
  o.window = 30;
  o.horizon = 1;
  o.epochs = 3;
  o.batch_size = 32;
  o.seed = 11;
  return o;
}

std::vector<double> PaperSeries() {
  Rng rng(5);
  std::vector<double> v(580);
  for (size_t t = 0; t < v.size(); ++t) {
    const double x = static_cast<double>(t);
    v[t] = 100.0 + 40.0 * std::sin(2.0 * std::numbers::pi * x / 144.0) +
           10.0 * std::sin(2.0 * std::numbers::pi * x / 24.0) + 2.0 * rng.Gaussian();
  }
  return v;
}

#if defined(DBAUGUR_TEST_HEAP_IN_USE)
template <typename Model>
int64_t HeapKeptAfterFit(const std::vector<double>& series) {
  const int64_t before = HeapInUse();
  auto model = std::make_unique<Model>(PaperModelOptions());
  EXPECT_TRUE(model->Fit(series).ok());
  return HeapInUse() - before;
}
#endif

TEST(FitReleaseTest, FittedModelKeepsUnderOneMegabyte) {
#if !defined(DBAUGUR_TEST_HEAP_IN_USE)
  GTEST_SKIP() << "needs glibc mallinfo2 and the system allocator";
#else
  const std::vector<double> series = PaperSeries();
  constexpr int64_t kLimit = int64_t{1} << 20;
  EXPECT_LT(HeapKeptAfterFit<models::WfganForecaster>(series), kLimit);
  EXPECT_LT(HeapKeptAfterFit<models::TcnForecaster>(series), kLimit);
  EXPECT_LT(HeapKeptAfterFit<models::MlpForecaster>(series), kLimit);
  EXPECT_LT(HeapKeptAfterFit<models::LstmForecaster>(series), kLimit);
#endif
}

// Fit (frees its buffers) against PrepareTraining plus `epochs` TrainEpoch
// calls (keeps them): two Predict calls and SaveState must match bit for bit.
template <typename Model>
void ExpectReleasedMatchesKept(const char* name) {
  SCOPED_TRACE(name);
  const models::ForecasterOptions opts = PaperModelOptions();
  const std::vector<double> series = PaperSeries();
  Model fitted(opts);
  ASSERT_TRUE(fitted.Fit(series).ok());
  Model kept(opts);
  ASSERT_TRUE(kept.PrepareTraining(series).ok());
  for (size_t e = 0; e < opts.epochs; ++e) ASSERT_TRUE(kept.TrainEpoch().ok());
  // Restoring its own state marks `kept` fitted and leaves its workspaces as
  // training left them.
  auto kept_state = kept.SaveState();
  ASSERT_TRUE(kept_state.ok());
  ASSERT_TRUE(kept.LoadState(*kept_state).ok());

  const std::vector<double> w1(series.end() - 30, series.end());
  const std::vector<double> w2(series.begin() + 100, series.begin() + 130);
  for (const std::vector<double>* w : {&w1, &w2}) {
    auto got = fitted.Predict(*w);
    auto want = kept.Predict(*w);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(Bits(*got), Bits(*want));
  }
  auto fitted_state = fitted.SaveState();
  ASSERT_TRUE(fitted_state.ok());
  EXPECT_TRUE(*fitted_state == *kept_state);
}

TEST(FitReleaseTest, ReleasedModelsPredictLikeModelsThatKeepTheirBuffers) {
  ExpectReleasedMatchesKept<models::WfganForecaster>("WFGAN");
  ExpectReleasedMatchesKept<models::TcnForecaster>("TCN");
  ExpectReleasedMatchesKept<models::MlpForecaster>("MLP");
  ExpectReleasedMatchesKept<models::LstmForecaster>("LSTM");
}

// --- Resumable fits. --------------------------------------------------------

// Two Predict calls and SaveState of `got` equal those of `want`, bit for bit.
void ExpectSameModel(const models::Forecaster& got,
                     const models::Forecaster& want,
                     const std::vector<double>& series) {
  const std::vector<double> w1(series.end() - 30, series.end());
  const std::vector<double> w2(series.begin() + 100, series.begin() + 130);
  for (const std::vector<double>* w : {&w1, &w2}) {
    auto a = got.Predict(*w);
    auto b = want.Predict(*w);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(Bits(*a), Bits(*b));
  }
  auto a = got.SaveState();
  auto b = want.SaveState();
  ASSERT_EQ(a.ok(), b.ok());
  if (a.ok()) {
    EXPECT_TRUE(*a == *b) << "SaveState bytes differ";
  }
}

// Every FitStep, with a SuspendFit between any two, against Fit.
template <typename Model>
void ExpectSuspendedStepsMatchFit(const models::ForecasterOptions& opts,
                                  const char* name) {
  SCOPED_TRACE(name);
  const std::vector<double> series = PaperSeries();
  Model fitted(opts);
  ASSERT_TRUE(fitted.Fit(series).ok());
  Model stepped(opts);
  const size_t steps = stepped.FitSteps();
  EXPECT_EQ(steps, std::max<size_t>(1, opts.epochs));
  for (size_t s = 0; s < steps; ++s) {
    ASSERT_TRUE(stepped.FitStep(s, series).ok()) << "step " << s;
    if (s + 1 < steps) stepped.SuspendFit();
  }
  ExpectSameModel(stepped, fitted, series);
}

TEST(ResumableFitTest, SuspendedStepsMatchFitBitForBit) {
  const models::ForecasterOptions opts = PaperModelOptions();
  ExpectSuspendedStepsMatchFit<models::WfganForecaster>(opts, "WFGAN");
  ExpectSuspendedStepsMatchFit<models::TcnForecaster>(opts, "TCN");
  ExpectSuspendedStepsMatchFit<models::MlpForecaster>(opts, "MLP");
  ExpectSuspendedStepsMatchFit<models::LstmForecaster>(opts, "LSTM");
}

TEST(ResumableFitTest, ZeroEpochsTakeOneStepThatMatchesFit) {
  models::ForecasterOptions opts = PaperModelOptions();
  opts.epochs = 0;
  ExpectSuspendedStepsMatchFit<models::WfganForecaster>(opts, "WFGAN");
  ExpectSuspendedStepsMatchFit<models::TcnForecaster>(opts, "TCN");
  ExpectSuspendedStepsMatchFit<models::MlpForecaster>(opts, "MLP");
  ExpectSuspendedStepsMatchFit<models::LstmForecaster>(opts, "LSTM");
}

#if defined(DBAUGUR_TEST_HEAP_IN_USE)
// Heap a model holds after its first `steps` fit steps and a SuspendFit,
// less the heap of its dataset alone.
template <typename Model>
int64_t HeapKeptWhileSuspended(const std::vector<double>& series,
                               size_t steps) {
  const models::ForecasterOptions opts = PaperModelOptions();
  int64_t before = HeapInUse();
  int64_t dataset = 0;
  {
    auto ds = models::BuildScaledDataset(series, opts);
    EXPECT_TRUE(ds.ok());
    dataset = HeapInUse() - before;
  }
  before = HeapInUse();
  auto model = std::make_unique<Model>(opts);
  for (size_t s = 0; s < steps; ++s) {
    EXPECT_TRUE(model->FitStep(s, series).ok());
  }
  model->SuspendFit();
  return HeapInUse() - before - dataset;
}
#endif

TEST(ResumableFitTest, SuspendedFitKeepsItsDatasetAndUnderOneMegabyteMore) {
#if !defined(DBAUGUR_TEST_HEAP_IN_USE)
  GTEST_SKIP() << "needs glibc mallinfo2 and the system allocator";
#else
  const std::vector<double> series = PaperSeries();
  constexpr int64_t kLimit = int64_t{1} << 20;
  for (size_t steps : {1u, 2u}) {
    SCOPED_TRACE("steps " + std::to_string(steps));
    EXPECT_LT(HeapKeptWhileSuspended<models::WfganForecaster>(series, steps),
              kLimit);
    EXPECT_LT(HeapKeptWhileSuspended<models::TcnForecaster>(series, steps),
              kLimit);
    EXPECT_LT(HeapKeptWhileSuspended<models::MlpForecaster>(series, steps),
              kLimit);
    EXPECT_LT(HeapKeptWhileSuspended<models::LstmForecaster>(series, steps),
              kLimit);
  }
#endif
}

TEST(ResumableFitTest, OtherModelsTakeOneStepThatIsFit) {
  const models::ForecasterOptions opts = PaperModelOptions();
  const std::vector<double> series = PaperSeries();
  auto expect_one_step = [&](models::Forecaster& stepped,
                             models::Forecaster& fitted) {
    SCOPED_TRACE(stepped.name());
    EXPECT_EQ(stepped.FitSteps(), 1u);
    ASSERT_TRUE(stepped.FitStep(0, series).ok());
    stepped.SuspendFit();
    ASSERT_TRUE(fitted.Fit(series).ok());
    ExpectSameModel(stepped, fitted, series);
  };
  {
    models::LinearRegressionForecaster a(opts), b(opts);
    expect_one_step(a, b);
  }
  {
    models::KernelRegressionForecaster a(opts), b(opts);
    expect_one_step(a, b);
  }
  {
    models::ArimaForecaster a(opts), b(opts);
    expect_one_step(a, b);
  }
  models::MlpForecaster inner(opts);
  ASSERT_TRUE(inner.Fit(series).ok());
  ensemble::SharedMember a(&inner), b(&inner);
  expect_one_step(a, b);
}

}  // namespace
}  // namespace dbaugur::core
