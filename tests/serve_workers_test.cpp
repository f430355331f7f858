// Concurrent retrain execution tests: CancelToken latching and deadline
// semantics, the service's thread count, the workers=N vs sequential
// snapshot bit-identity contract, hang-storm degradation and recovery
// through ShardedForecastService, cancellation accounting, and a producers +
// cycles + checkpoints stress the sanitizer presets (ASan/TSan) exercise.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "serve/sharded_service.h"
#include "serve/snapshot.h"

// Sanitizer builds run retrains an order of magnitude slower, so tests that
// pin exact deadline-cancellation counts against a tight deadline must widen
// it there — a genuine (healthy) retrain missing the deadline would inflate
// the count. Armed hang faults stall until cancelled, so they are caught at
// any deadline; only the wall-clock cost changes.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DBAUGUR_WORKERS_TEST_SANITIZED 1
#endif
#if !defined(DBAUGUR_WORKERS_TEST_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DBAUGUR_WORKERS_TEST_SANITIZED 1
#endif
#endif

namespace dbaugur::serve {
namespace {

constexpr int64_t kInterval = 600;

#if defined(DBAUGUR_WORKERS_TEST_SANITIZED)
constexpr double kHangDeadlineSeconds = 1.0;
#else
constexpr double kHangDeadlineSeconds = 0.05;
#endif

ServeOptions FastOptions() {
  ServeOptions o;
  o.pipeline.clustering.radius = 6.0;
  o.pipeline.clustering.min_size = 2;
  o.pipeline.clustering.dtw.window = 4;
  o.pipeline.top_k = 3;
  o.pipeline.forecaster.window = 6;
  o.pipeline.forecaster.horizon = 1;
  o.pipeline.forecaster.epochs = 2;  // serving smoke, not accuracy
  o.pipeline.forecaster.batch_size = 8;
  o.bin_interval_seconds = kInterval;
  o.queue_capacity = 1 << 15;
  o.retrain_interval_seconds = 0.005;
  return o;
}

TraceEvent EventAt(uint32_t template_id, int64_t bin, double count) {
  TraceEvent e;
  e.template_id = template_id;
  e.timestamp = bin * kInterval + 30;
  e.count = count;
  return e;
}

/// First `per_shard` template ids routing to each of `shard_count` shards.
std::vector<std::vector<uint32_t>> TemplatesByShard(size_t shard_count,
                                                    size_t per_shard) {
  std::vector<std::vector<uint32_t>> groups(shard_count);
  for (uint32_t id = 0; id < 4096; ++id) {
    auto& g = groups[ShardOfKey(id, shard_count)];
    if (g.size() < per_shard) g.push_back(id);
    bool done = true;
    for (const auto& grp : groups) done = done && grp.size() == per_shard;
    if (done) break;
  }
  return groups;
}

void OfferGroupWave(ShardedForecastService* svc,
                    const std::vector<std::vector<uint32_t>>& groups,
                    int64_t first_bin, int64_t bins) {
  for (int64_t b = first_bin; b < first_bin + bins; ++b) {
    for (size_t g = 0; g < groups.size(); ++g) {
      for (uint32_t id : groups[g]) {
        double count = 40.0 + 15.0 * std::sin((0.5 + static_cast<double>(g)) *
                                              static_cast<double>(b));
        ASSERT_TRUE(svc->Offer(EventAt(id, b, count)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CancelToken.

TEST(CancelTokenTest, LatchesOnceFirstReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
  token.Cancel("deadline overrun");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "deadline overrun");
  token.Cancel("second caller");  // first cancel wins
  EXPECT_EQ(token.reason(), "deadline overrun");
}

TEST(CancelTokenTest, CancelledStatusCarriesCodeAndReason) {
  CancelToken token;
  token.Cancel("watchdog: shard 3 overran");
  Status st = CancelledStatus(token, "serve: retrain");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("serve: retrain"), std::string::npos);
  EXPECT_NE(st.message().find("watchdog: shard 3 overran"), std::string::npos);
}

TEST(CancelTokenTest, CrossThreadLatchUnblocksAPoller) {
  CancelToken token;
  std::atomic<bool> unblocked{false};
  std::thread poller([&] {
    while (!token.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    unblocked.store(true, std::memory_order_release);
  });
  token.Cancel("stop polling");
  poller.join();
  EXPECT_TRUE(unblocked.load(std::memory_order_acquire));
  EXPECT_EQ(token.reason(), "stop polling");
}

using SteadyClock = std::chrono::steady_clock;

TEST(CancelTokenTest, DeadlineLatchesWithItsReasonOncePassed) {
  CancelToken far(SteadyClock::now() + std::chrono::hours(1), "far off");
  EXPECT_FALSE(far.cancelled());
  EXPECT_EQ(far.reason(), "");

  const auto deadline = SteadyClock::now() + std::chrono::milliseconds(50);
  CancelToken token(deadline, "watchdog: shard 7 retrain exceeded its 0.05s "
                              "deadline");
  // Polled the way a hung retrain polls: every millisecond until cancelled.
  // The 2s bound fails the test instead of hanging it on a broken deadline.
  for (int i = 0; i < 2000; ++i) {
    const bool cancelled = token.cancelled();
    // Only a poll that ended before the deadline must read not cancelled.
    if (SteadyClock::now() < deadline) {
      EXPECT_FALSE(cancelled);
    }
    if (cancelled) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(token.cancelled());
  EXPECT_GE(SteadyClock::now(), deadline);
  EXPECT_EQ(token.reason(),
            "watchdog: shard 7 retrain exceeded its 0.05s deadline");
  Status st = CancelledStatus(token, "serve: retrain (hung)");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.message().find("deadline"), std::string::npos);
}

TEST(CancelTokenTest, ReasonReadsAPassedDeadlineWithoutAPoll) {
  CancelToken token(SteadyClock::now() - std::chrono::seconds(1), "expired");
  EXPECT_EQ(token.reason(), "expired");
  EXPECT_TRUE(token.cancelled());
  token.Cancel("too late");  // the deadline came first
  EXPECT_EQ(token.reason(), "expired");
}

TEST(CancelTokenTest, TokenWithoutDeadlineNeverExpires) {
  CancelToken token;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
}

TEST(CancelTokenTest, CancelBeforeDeadlineKeepsItsOwnReason) {
  const auto deadline = SteadyClock::now() + std::chrono::milliseconds(200);
  CancelToken token(deadline, "deadline passed");
  token.Cancel("shutting down");
  ASSERT_LT(SteadyClock::now(), deadline);  // the Cancel came first
  EXPECT_TRUE(token.cancelled());
  std::this_thread::sleep_until(deadline + std::chrono::milliseconds(20));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "shutting down");
}

// ---------------------------------------------------------------------------
// Thread ownership: W shard lanes and L fit lanes, the cycle's caller being
// one lane of each, so a service spawns (W-1)+(L-1) pool threads, plus one
// scheduler thread once started.

size_t ProcessThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

/// A joined thread can stay listed for a moment after join returns; read
/// until two reads 5ms apart agree.
size_t SettledThreadCount() {
  size_t n = ProcessThreadCount();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const size_t again = ProcessThreadCount();
    if (again == n) break;
    n = again;
  }
  return n;
}

TEST(ServeThreadsTest, ServiceSpawnsWorkersPlusFitLanesMinusTwo) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads";
  }
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = 8;
  so.retrain_workers = 2;
  so.shard.pipeline.clustering.threads = 4;
  // A sanitizer runtime starts a helper thread at the process's first
  // thread creation; create one here so `before` already counts it.
  std::thread([] {}).join();
  const size_t before = SettledThreadCount();
  {
    ShardedForecastService svc(so);
    EXPECT_EQ(ProcessThreadCount() - before, (2u - 1) + (4u - 1));
    svc.Start();
    EXPECT_EQ(ProcessThreadCount() - before, (2u - 1) + (4u - 1) + 1);
    svc.Stop();
  }
  EXPECT_EQ(SettledThreadCount(), before);
}

TEST(ServeWorkersTest, EmptyScheduleCompletesTheCycleWithoutARetrain) {
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = 4;
  so.retrain_workers = 2;
  ShardedForecastService svc(so);
  // No traffic: every shard is idle, so the schedule is empty and no lane
  // runs a retrain, yet the cycle still counts as done.
  EXPECT_TRUE(svc.RetrainCycle().empty());
  EXPECT_EQ(svc.cycles(), 1u);
  ServeStats st = svc.stats();
  EXPECT_EQ(st.retrains_completed, 0u);
  EXPECT_EQ(st.retrains_skipped, 0u);
  EXPECT_EQ(st.retrains_failed, 0u);
  for (size_t s = 0; s < so.shard_count; ++s) {
    EXPECT_FALSE(svc.snapshot(s)->trained()) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Determinism contract: published snapshots for completed shards are
// bit-identical at any worker count.

TEST(WorkerDeterminismTest, FourWorkersMatchSequentialSnapshotsBitIdentical) {
  constexpr size_t kShards = 3;
  auto groups = TemplatesByShard(kShards, 4);
  ShardedServeOptions seq;
  seq.shard = FastOptions();
  seq.shard_count = kShards;
  seq.retrain_workers = 1;
  seq.shard.pipeline.clustering.threads = 1;
  // 4 workers x 4 fit lanes: concurrent retrains share one fit pool, and
  // every lane of both pools is in play even on a host with few cores.
  ShardedServeOptions par = seq;
  par.retrain_workers = 4;
  par.shard.pipeline.clustering.threads = 4;
  ShardedForecastService sequential(seq);
  ShardedForecastService concurrent(par);

  for (int round = 0; round < 2; ++round) {
    OfferGroupWave(&sequential, groups, round * 12, 12);
    OfferGroupWave(&concurrent, groups, round * 12, 12);
    std::vector<size_t> a = sequential.RetrainCycle();
    std::vector<size_t> b = concurrent.RetrainCycle();
    EXPECT_EQ(a, b);  // identical schedules at any worker count
  }
  for (size_t s = 0; s < kShards; ++s) {
    auto a = sequential.snapshot(s);
    auto b = concurrent.snapshot(s);
    ASSERT_TRUE(a->trained()) << "shard " << s;
    ASSERT_TRUE(b->trained()) << "shard " << s;
    BufWriter wa, wb;
    ASSERT_TRUE(SerializeSnapshot(*a, &wa).ok());
    ASSERT_TRUE(SerializeSnapshot(*b, &wb).ok());
    EXPECT_EQ(wa.Take(), wb.Take()) << "shard " << s;
  }
}

// ---------------------------------------------------------------------------
// Hang storm through the service: deadlines cancel, shards serve last-good
// marked degraded-stale, and a later clean cycle recovers.

class ServeWorkersFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override {
    const char* env = std::getenv("DBAUGUR_FAULT_SPEC");
    if (env != nullptr && *env != '\0') {
      ASSERT_TRUE(fault::Configure(env).ok());
    } else {
      fault::Reset();
    }
  }
};

TEST_F(ServeWorkersFaultTest, HangStormWatchdogDegradesThenRecovers) {
  constexpr size_t kShards = 3;
  auto groups = TemplatesByShard(kShards, 4);
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = kShards;
  so.retrain_workers = 2;
  so.retrain_deadline_seconds = kHangDeadlineSeconds;
  ShardedForecastService svc(so);
  OfferGroupWave(&svc, groups, 0, 12);

  // Exactly the first cycle's three retrains hang (3 shards pending, n:3 —
  // every hit fires, so the storm is deterministic at any worker count).
  ASSERT_TRUE(fault::Configure("serve.retrain.hang=n:3").ok());
  std::vector<size_t> order = svc.RetrainCycle();
  ASSERT_EQ(order.size(), kShards);

  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.retrains_cancelled, kShards);
  EXPECT_EQ(h.stale_shards, kShards);
  for (const ServeStats& row : h.shards) {
    EXPECT_EQ(row.retrains_cancelled, 1u);
    EXPECT_TRUE(row.degraded_stale);
    EXPECT_NE(row.stale_reason.find("watchdog"), std::string::npos);
    EXPECT_EQ(row.generation, 0u);  // still serving the last-good snapshot
    EXPECT_EQ(row.consecutive_failures, 1u);
    EXPECT_GE(row.last_error_age_seconds, 0.0);
    ASSERT_NE(svc.snapshot(row.shard_id), nullptr);
  }

  // Storm over: the backoff (one cycle after one failure) delays each shard
  // one scheduler cycle, then a clean retrain publishes and clears the
  // degraded-stale marker.
  fault::Reset();
  for (int cycle = 0; cycle < 6; ++cycle) {
    (void)svc.RetrainCycle();
    if (svc.Health().stale_shards == 0) break;
  }
  h = svc.Health();
  EXPECT_EQ(h.stale_shards, 0u);
  EXPECT_EQ(h.retrains_cancelled, kShards);  // history, not current state
  for (const ServeStats& row : h.shards) {
    EXPECT_FALSE(row.degraded_stale);
    EXPECT_EQ(row.stale_reason, "");
    EXPECT_GE(row.generation, 1u) << "shard " << row.shard_id;
    EXPECT_EQ(row.consecutive_failures, 0u);
  }
}

TEST_F(ServeWorkersFaultTest, SlowRetrainUnderWideDeadlineCompletes) {
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = 1;
  so.retrain_workers = 1;
  so.retrain_deadline_seconds = 30.0;
  ShardedForecastService svc(so);
  auto groups = TemplatesByShard(1, 4);
  OfferGroupWave(&svc, groups, 0, 12);
  ASSERT_TRUE(fault::Configure("serve.retrain.slow=n:1").ok());
  std::vector<size_t> order = svc.RetrainCycle();
  ASSERT_EQ(order.size(), 1u);
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.retrains_cancelled, 0u);
  EXPECT_EQ(h.stale_shards, 0u);
  EXPECT_GE(h.shards[0].generation, 1u);
  // The injected ~200ms stall is visible in the retrain duration.
  EXPECT_GE(h.shards[0].last_retrain_seconds, 0.15);
}

TEST_F(ServeWorkersFaultTest, CancelledRetrainOutsideACycleCountsInTheTotal) {
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = 1;
  ShardedForecastService svc(so);
  OfferGroupWave(&svc, TemplatesByShard(1, 4), 0, 12);
  CancelToken token;
  token.Cancel("test: operator stopped the retrain");
  Status st = svc.shard(0).RetrainOnce(nullptr, &token);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.shards[0].retrains_cancelled, 1u);
  EXPECT_EQ(h.retrains_cancelled, 1u);  // the total is the rows' sum
  EXPECT_EQ(h.stale_shards, 1u);
}

TEST_F(ServeWorkersFaultTest, HangWithoutDeadlineFailsInsteadOfBlocking) {
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = 1;
  so.retrain_deadline_seconds = 0.0;  // nothing could cancel a retrain
  ShardedForecastService svc(so);
  OfferGroupWave(&svc, TemplatesByShard(1, 4), 0, 12);
  ASSERT_TRUE(fault::Configure("serve.retrain.hang=n:1").ok());
  std::vector<size_t> order = svc.RetrainCycle();  // returns, no hang
  ASSERT_EQ(order.size(), 1u);
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.shards[0].retrains_failed, 1u);
  EXPECT_EQ(h.retrains_cancelled, 0u);
  EXPECT_NE(h.shards[0].last_error.find("no cancel token"), std::string::npos)
      << h.shards[0].last_error;
  EXPECT_EQ(h.shards[0].generation, 0u);
}

// ---------------------------------------------------------------------------
// Health aggregates (previously only per-shard): accepted/dropped/quarantined
// sums and the per-category drop breakdown.

TEST(ServeHealthAggregateTest, SumsIngestCountersAcrossShards) {
  constexpr size_t kShards = 3;
  auto groups = TemplatesByShard(kShards, 2);
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = kShards;
  ShardedForecastService svc(so);
  size_t offered = 0;
  for (size_t g = 0; g < kShards; ++g) {
    for (uint32_t id : groups[g]) {
      ASSERT_TRUE(svc.Offer(EventAt(id, 1, 5.0)));
      ++offered;
    }
  }
  // Two quarantine-class drops (nonfinite, negative) on shard 0's owner.
  uint32_t id0 = groups[0][0];
  EXPECT_FALSE(svc.Offer(EventAt(id0, 1, std::nan(""))));
  EXPECT_FALSE(svc.Offer(EventAt(id0, 1, -3.0)));
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.events_accepted, offered);
  EXPECT_EQ(h.events_dropped, 2u);
  EXPECT_EQ(h.drops.quarantined(), 2u);
  EXPECT_EQ(h.drops.nonfinite, 1u);
  EXPECT_EQ(h.drops.negative, 1u);
  EXPECT_EQ(h.drops.total(), 2u);
}

// ---------------------------------------------------------------------------
// Checkpoint-vs-cancellation stress (S3): concurrent producers, scheduler
// cycles under a hang storm with a retrain deadline, and SaveToFiles racing
// both — every checkpoint written must be loadable and all-or-nothing.

TEST_F(ServeWorkersFaultTest, CheckpointsStayLoadableUnderHangStormStress) {
  constexpr size_t kShards = 3;
  auto groups = TemplatesByShard(kShards, 3);
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = kShards;
  so.retrain_workers = 2;
  so.retrain_deadline_seconds = 0.02;
  ShardedForecastService svc(so);
  OfferGroupWave(&svc, groups, 0, 12);
  (void)svc.RetrainCycle();  // one clean generation before the storm

  // Every retrain for the rest of the test hangs until its deadline passes.
  ASSERT_TRUE(fault::Configure("serve.retrain.hang=n:1000").ok());

  const std::string base = ::testing::TempDir() + "dbaugur_workers_stress";
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    int64_t bin = 12;
    while (!stop.load(std::memory_order_acquire)) {
      for (size_t g = 0; g < kShards; ++g) {
        for (uint32_t id : groups[g]) {
          (void)svc.Offer(EventAt(id, bin, 20.0 + (bin % 7)));
        }
      }
      ++bin;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread cycler([&] {
    for (int i = 0; i < 8; ++i) (void)svc.RetrainCycle();
    stop.store(true, std::memory_order_release);
  });
  // Checkpoints race retrains mid-hang and mid-cancellation. Each
  // one must be complete and loadable the moment SaveToFiles returns.
  int saves = 0;
  while (!stop.load(std::memory_order_acquire)) {
    ASSERT_TRUE(svc.SaveToFiles(base).ok());
    ++saves;
    ShardedServeOptions fresh = so;
    ShardedForecastService restored(fresh);
    ASSERT_TRUE(restored.LoadFromFiles(base).ok());
    for (size_t s = 0; s < kShards; ++s) {
      ASSERT_NE(restored.snapshot(s), nullptr);
    }
  }
  producer.join();
  cycler.join();
  EXPECT_GE(saves, 1);
  // The storm really ran: deadlines cancelled hung retrains throughout.
  EXPECT_GT(svc.Health().retrains_cancelled, 0u);
}

}  // namespace
}  // namespace dbaugur::serve
