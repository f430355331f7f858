// Fault-tolerance tests for the serving layer: deterministic fault-injection
// schedules, retrain backoff in scheduler cycles, input quarantine +
// winsorization, per-cluster degraded mode with last-good / kernel-baseline
// fallbacks, and crash-safe on-disk checkpoints (torn writes, bit flips,
// truncation, CRC-valid but invalid payloads → last-good recovery; counts
// read from disk never trusted). The service runs at shard_count = 1 unless a
// test says otherwise. The final chaos test reads DBAUGUR_FAULT_SPEC and is
// what the check.sh fault pass drives under ASan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "serve/ingestor.h"
#include "serve/retrain_scheduler.h"
#include "serve/sharded_service.h"
#include "serve/snapshot.h"

namespace dbaugur::serve {
namespace {

constexpr int64_t kInterval = 600;

// Every test starts and ends with a clean fault registry, so a failed test
// cannot leak schedules into its neighbors (or inherit the env spec the
// check.sh chaos pass installs process-wide).
class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

using FaultInjectionTest = ServeFaultTest;
using BackoffTest = ServeFaultTest;
using QuarantineTest = ServeFaultTest;
using DegradedModeTest = ServeFaultTest;
using CheckpointFaultTest = ServeFaultTest;
using ServeFaultChaosTest = ServeFaultTest;

ServeOptions FaultOptions() {
  ServeOptions o;
  // Tight clustering: each of the (deliberately dissimilar) templates forms
  // its own cluster, so per-cluster degradation is observable at every rank.
  o.pipeline.clustering.radius = 1.0;
  o.pipeline.clustering.min_size = 1;
  o.pipeline.clustering.dtw.window = 4;
  o.pipeline.top_k = 3;
  o.pipeline.forecaster.window = 6;
  o.pipeline.forecaster.horizon = 1;
  o.pipeline.forecaster.epochs = 2;
  o.pipeline.forecaster.batch_size = 8;
  o.bin_interval_seconds = kInterval;
  o.queue_capacity = 8192;
  o.retrain_interval_seconds = 0.005;
  o.max_lateness_seconds = 2 * kInterval;
  return o;
}

// The single-shard deployment of `o`.
ShardedServeOptions OneShard(const ServeOptions& o) {
  ShardedServeOptions so;
  so.shard = o;
  so.shard_count = 1;
  return so;
}

// Offers `bins` bins for `templates` templates with per-template scales far
// enough apart that each template clusters alone (distinct, ordered volumes).
void OfferScaledBins(ShardedForecastService* svc, uint32_t templates,
                     int64_t first_bin, int64_t bins) {
  for (int64_t b = first_bin; b < first_bin + bins; ++b) {
    for (uint32_t t = 0; t < templates; ++t) {
      double scale = 50.0 * static_cast<double>(templates - t);
      TraceEvent e;
      e.template_id = t;
      e.timestamp = b * kInterval + 30;
      e.count = scale + 5.0 * std::sin(static_cast<double>(b) * 0.4 + t);
      ASSERT_TRUE(svc->Offer(e));
    }
  }
}

// --------------------------------------------------------------------------
// Fault-injection framework semantics.

TEST_F(FaultInjectionTest, InactiveByDefaultAndAfterReset) {
  EXPECT_FALSE(fault::Active());
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("test.site"));
  ASSERT_TRUE(fault::Configure("test.site=n:1").ok());
  EXPECT_TRUE(fault::Active());
  fault::Reset();
  EXPECT_FALSE(fault::Active());
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("test.site"));
}

TEST_F(FaultInjectionTest, FirstNScheduleFiresExactlyNTimes) {
  ASSERT_TRUE(fault::Configure("test.site=n:3").ok());
  int fires = 0;
  for (int i = 0; i < 10; ++i) {
    if (DBAUGUR_FAULT_POINT("test.site")) ++fires;
  }
  EXPECT_EQ(fires, 3);
  auto st = fault::Stats("test.site");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->hits, 10u);
  EXPECT_EQ(st->fires, 3u);
}

TEST_F(FaultInjectionTest, AtIndicesScheduleFiresOnExactHits) {
  ASSERT_TRUE(fault::Configure("test.site=at:0,4,5").ok());
  std::vector<int> fired;
  for (int i = 0; i < 8; ++i) {
    if (DBAUGUR_FAULT_POINT("test.site")) fired.push_back(i);
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 4, 5}));
}

TEST_F(FaultInjectionTest, ProbabilisticScheduleIsSeedDeterministic) {
  auto run = [] {
    std::vector<bool> verdicts;
    for (int i = 0; i < 64; ++i) {
      verdicts.push_back(DBAUGUR_FAULT_POINT("test.site"));
    }
    return verdicts;
  };
  ASSERT_TRUE(fault::Configure("test.site=p:0.5:99").ok());
  auto first = run();
  ASSERT_TRUE(fault::Configure("test.site=p:0.5:99").ok());
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
  EXPECT_GT(std::count(first.begin(), first.end(), false), 0);
  // A different seed yields a different (still deterministic) sequence.
  ASSERT_TRUE(fault::Configure("test.site=p:0.5:100").ok());
  EXPECT_NE(run(), first);
}

TEST_F(FaultInjectionTest, ParseErrorKeepsPreviousConfiguration) {
  ASSERT_TRUE(fault::Configure("test.site=n:2").ok());
  EXPECT_FALSE(fault::Configure("test.site=bogus:1").ok());
  EXPECT_FALSE(fault::Configure("nonsense").ok());
  EXPECT_FALSE(fault::Configure("test.site=p:2.0").ok());  // p out of range
  // The n:2 schedule survived all three rejected specs.
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("test.site"));
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("test.site"));
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("test.site"));
}

TEST_F(FaultInjectionTest, MultiSiteSpecAndUnknownSiteStats) {
  ASSERT_TRUE(fault::Configure("a.b=n:1;c.d=at:1").ok());
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("a.b"));
  EXPECT_FALSE(DBAUGUR_FAULT_POINT("c.d"));
  EXPECT_TRUE(DBAUGUR_FAULT_POINT("c.d"));
  EXPECT_EQ(fault::Stats("never.hit").status().code(), StatusCode::kNotFound);
  auto ab = fault::Stats("a.b");
  auto cd = fault::Stats("c.d");
  ASSERT_TRUE(ab.ok() && cd.ok());
  EXPECT_EQ(ab->hits, 1u);
  EXPECT_EQ(ab->fires, 1u);
  EXPECT_EQ(cd->hits, 2u);
  EXPECT_EQ(cd->fires, 1u);
}

// --------------------------------------------------------------------------
// Retrain failure handling: backoff in cycles, last_error, Health().

TEST_F(BackoffTest, FailuresAreRecordedOnceAndClearedOnSuccess) {
  ShardedForecastService svc(OneShard(FaultOptions()));
  OfferScaledBins(&svc, 2, 0, 12);
  ASSERT_TRUE(fault::Configure("serve.retrain.build=n:3").ok());

  for (int i = 1; i <= 3; ++i) {
    Status st = svc.shard(0).RetrainOnce();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("injected"), std::string::npos);
    ServeStats s = svc.stats();
    EXPECT_EQ(s.retrains_failed, static_cast<uint64_t>(i));
    EXPECT_EQ(s.consecutive_failures, static_cast<uint64_t>(i));
    EXPECT_NE(s.last_error.find("injected"), std::string::npos);
    EXPECT_EQ(s.last_error_generation, 0u);  // failed before first publish
    EXPECT_EQ(s.last_error_cycles, 0u);
  }
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.state, HealthState::kBackoff);
  ASSERT_EQ(h.shards.size(), 1u);
  EXPECT_EQ(h.shards[0].state, HealthState::kBackoff);
  EXPECT_EQ(h.shards[0].consecutive_failures, 3u);
  EXPECT_NE(h.shards[0].last_error.find("injected"), std::string::npos);

  // The scheduler backs the failing shard off in cycles: with traffic
  // pending it stays unscheduled until it has waited BackoffCycles(3) = 4.
  OfferScaledBins(&svc, 2, 12, 2);
  for (uint64_t c = 0; c < BackoffCycles(3); ++c) {
    EXPECT_TRUE(svc.RetrainCycle().empty()) << "cycle " << c;
  }
  EXPECT_EQ(svc.Health().shards[0].cycles_waited, BackoffCycles(3));

  // The schedule is exhausted: the next cycle trains, clears the streak, and
  // keeps the failure history (retrains_failed, last_error) for forensics.
  EXPECT_EQ(svc.RetrainCycle(), (std::vector<size_t>{0}));
  ServeStats s = svc.stats();
  EXPECT_EQ(s.retrains_completed, 1u);
  EXPECT_EQ(s.retrains_failed, 3u);
  EXPECT_EQ(s.consecutive_failures, 0u);
  EXPECT_NE(s.last_error.find("injected"), std::string::npos);
  h = svc.Health();
  EXPECT_EQ(h.state, HealthState::kHealthy);
  EXPECT_EQ(h.shards[0].generation, 1u);
  EXPECT_EQ(h.shards[0].cycles_waited, 0u);
  auto snap = svc.snapshot(0);
  ASSERT_TRUE(snap->trained());
  EXPECT_EQ(h.shards[0].cluster_count, snap->cluster_count());
  EXPECT_EQ(h.shards[0].degraded_clusters, 0u);
  for (const SnapshotCluster& c : snap->clusters) EXPECT_FALSE(c.degraded);
}

TEST_F(BackoffTest, ShardInBackoffHasItsQueueFoldedEveryCycle) {
  // Three failed retrains back the shard off for 1 + 2 + 4 cycles. It is not
  // scheduled in those cycles, but each of them still folds its queue, so no
  // accepted event waits for the backoff to end.
  ShardedForecastService svc(OneShard(FaultOptions()));
  OfferScaledBins(&svc, 2, 0, 12);
  ASSERT_TRUE(fault::Configure("serve.retrain.build=n:3").ok());
  uint64_t skipped_in_backoff = 0;
  for (int64_t b = 12; b < 30 && svc.stats().retrains_completed == 0; ++b) {
    OfferScaledBins(&svc, 2, b, 1);
    const bool backing_off = svc.stats().consecutive_failures > 0;
    if (svc.RetrainCycle().empty() && backing_off) ++skipped_in_backoff;
    EXPECT_EQ(svc.shard(0).queue_depth(), 0u) << "bin " << b;
    const auto bins = svc.shard(0).BinContents();
    ASSERT_EQ(bins.size(), 2u);
    for (const auto& [template_id, by_bin] : bins) {
      EXPECT_EQ(by_bin.size(), static_cast<size_t>(b + 1))
          << "template " << template_id << " at bin " << b;
    }
  }
  EXPECT_EQ(skipped_in_backoff, 7u);
  ServeStats s = svc.stats();
  EXPECT_EQ(s.retrains_failed, 3u);
  EXPECT_EQ(s.retrains_completed, 1u);
  EXPECT_EQ(s.events_dropped, 0u);
}

TEST_F(BackoffTest, UntrainedHealthBeforeAnyData) {
  ShardedForecastService svc(OneShard(FaultOptions()));
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(h.state, HealthState::kUntrained);
  ASSERT_EQ(h.shards.size(), 1u);
  EXPECT_EQ(h.shards[0].state, HealthState::kUntrained);
  EXPECT_EQ(h.shards[0].generation, 0u);
  EXPECT_TRUE(h.shards[0].last_error.empty());
  EXPECT_EQ(h.shards[0].cluster_count, 0u);
  EXPECT_TRUE(svc.snapshot(0)->clusters.empty());
}

// --------------------------------------------------------------------------
// Input quarantine + winsorization.

TEST_F(QuarantineTest, GarbageBurstIsQuarantinedAndForecastsUnchanged) {
  ServeOptions opts = FaultOptions();
  ShardedForecastService clean(OneShard(opts));
  ShardedForecastService dirty(OneShard(opts));
  OfferScaledBins(&clean, 2, 0, 14);
  OfferScaledBins(&dirty, 2, 0, 14);

  // Burst of garbage at the dirty service only: NaN / inf / negative counts
  // and a timestamp far staler than max_lateness. Every row must bounce.
  const ts::Timestamp now = 13 * kInterval;
  EXPECT_FALSE(dirty.Offer({0, now, std::nan("")}));
  EXPECT_FALSE(dirty.Offer({0, now, std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(dirty.Offer({1, now, -std::numeric_limits<double>::infinity()}));
  EXPECT_FALSE(dirty.Offer({1, now, -3.0}));
  EXPECT_FALSE(dirty.Offer({0, now - 10 * kInterval, 5.0}));  // stale
  // Fault-injected corruption: the count rots to NaN inside Offer and must be
  // caught by the same quarantine before reaching the binner.
  ASSERT_TRUE(fault::Configure("serve.ingest.corrupt=n:2").ok());
  EXPECT_FALSE(dirty.Offer({0, now, 7.0}));
  EXPECT_FALSE(dirty.Offer({1, now, 7.0}));
  fault::Reset();

  ServeStats ds = dirty.stats();
  EXPECT_EQ(ds.drops.quarantined(), 7u);
  EXPECT_EQ(ds.events_dropped, 7u);

  ASSERT_TRUE(clean.shard(0).RetrainOnce().ok());
  ASSERT_TRUE(dirty.shard(0).RetrainOnce().ok());
  auto a = clean.snapshot(0);
  auto b = dirty.snapshot(0);
  ASSERT_TRUE(a->trained());
  ASSERT_EQ(a->cluster_count(), b->cluster_count());
  for (size_t rank = 0; rank < a->cluster_count(); ++rank) {
    auto fa = a->ForecastCluster(rank);
    auto fb = b->ForecastCluster(rank);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_EQ(*fa, *fb);  // bit-identical: no garbage reached training
  }
  EXPECT_EQ(dirty.stats().values_winsorized, 0u);
}

TEST_F(QuarantineTest, FiniteOutlierIsWinsorizedBeforeTraining) {
  ShardedForecastService svc(OneShard(FaultOptions()));
  OfferScaledBins(&svc, 2, 0, 14);
  // A finite positive spike passes the ingest quarantine (it could be a real
  // burst; it is recent enough to clear the lateness bound) but is ~1e10× the
  // series scale; the median/MAD clamp must pull it in before it reaches the
  // ensemble fit.
  ASSERT_TRUE(svc.Offer({0, 13 * kInterval + 60, 1e12}));
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  ServeStats s = svc.stats();
  EXPECT_EQ(s.drops.quarantined(), 0u);
  EXPECT_GE(s.values_winsorized, 1u);
  auto snap = svc.snapshot(0);
  ASSERT_TRUE(snap->trained());
  EXPECT_EQ(snap->degraded_count(), 0u);
  for (size_t rank = 0; rank < snap->cluster_count(); ++rank) {
    auto f = snap->ForecastCluster(rank);
    ASSERT_TRUE(f.ok());
    EXPECT_TRUE(std::isfinite(*f));
    EXPECT_LT(std::abs(*f), 1e6);  // nowhere near the 1e12 spike
  }
}

// --------------------------------------------------------------------------
// Per-cluster degraded mode.

TEST_F(DegradedModeTest, DivergedClusterFallsBackToKernelBaselineFirstTrain) {
  ServeOptions opts = FaultOptions();
  ShardedForecastService control(OneShard(opts));
  ShardedForecastService faulted(OneShard(opts));
  OfferScaledBins(&control, 3, 0, 14);
  OfferScaledBins(&faulted, 3, 0, 14);

  ASSERT_TRUE(control.shard(0).RetrainOnce().ok());
  // Diverge exactly the first cluster examined by the snapshot build.
  ASSERT_TRUE(fault::Configure("serve.retrain.diverge=at:0").ok());
  ASSERT_TRUE(faulted.shard(0).RetrainOnce().ok());
  fault::Reset();

  auto c = control.snapshot(0);
  auto f = faulted.snapshot(0);
  ASSERT_TRUE(c->trained() && f->trained());
  ASSERT_EQ(c->cluster_count(), f->cluster_count());
  ASSERT_GE(f->cluster_count(), 2u);
  EXPECT_EQ(f->degraded_count(), 1u);

  // Rank 0: degraded, on the kernel baseline (no last-good on first train),
  // with a finite forecast inside the representative's observed range
  // neighborhood.
  const SnapshotCluster& d = f->clusters[0];
  EXPECT_TRUE(d.degraded);
  EXPECT_EQ(d.model_kind, SnapshotCluster::ModelKind::kKernelBaseline);
  EXPECT_NE(d.degraded_reason.find("injected"), std::string::npos);
  EXPECT_NE(d.degraded_reason.find("kernel"), std::string::npos);
  EXPECT_TRUE(std::isfinite(d.next_value));

  // Every other cluster is bit-identical to the control run.
  for (size_t rank = 1; rank < f->cluster_count(); ++rank) {
    EXPECT_FALSE(f->clusters[rank].degraded);
    EXPECT_EQ(f->clusters[rank].model_kind,
              SnapshotCluster::ModelKind::kEnsemble);
    auto fc = c->ForecastCluster(rank);
    auto ff = f->ForecastCluster(rank);
    ASSERT_TRUE(fc.ok() && ff.ok());
    EXPECT_EQ(*fc, *ff);
  }

  ShardedServiceHealth h = faulted.Health();
  EXPECT_EQ(h.state, HealthState::kDegraded);
  EXPECT_EQ(h.shards[0].state, HealthState::kDegraded);
  EXPECT_EQ(h.shards[0].cluster_count, f->cluster_count());
  EXPECT_EQ(h.shards[0].degraded_clusters, 1u);

  // A degraded snapshot round-trips: the kernel-baseline model kind is
  // persisted and the restored service reproduces every forecast bit-for-bit.
  const std::string base = ::testing::TempDir() + "dbaugur_degraded_ckpt";
  ASSERT_TRUE(faulted.SaveToFiles(base).ok());
  ShardedForecastService restored(OneShard(opts));
  ASSERT_TRUE(restored.LoadFromFiles(base).ok());
  auto r = restored.snapshot(0);
  ASSERT_EQ(r->cluster_count(), f->cluster_count());
  EXPECT_EQ(r->degraded_count(), 1u);
  EXPECT_EQ(r->clusters[0].model_kind,
            SnapshotCluster::ModelKind::kKernelBaseline);
  EXPECT_EQ(r->clusters[0].degraded_reason, d.degraded_reason);
  for (size_t rank = 0; rank < r->cluster_count(); ++rank) {
    auto fr = r->ForecastCluster(rank);
    auto ff = f->ForecastCluster(rank);
    ASSERT_TRUE(fr.ok() && ff.ok());
    EXPECT_EQ(*fr, *ff);
  }
}

TEST_F(DegradedModeTest, DivergedClusterServesLastGoodModelAfterFirstTrain) {
  ShardedForecastService svc(OneShard(FaultOptions()));
  OfferScaledBins(&svc, 2, 0, 14);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());  // generation 1, all healthy
  ASSERT_EQ(svc.snapshot(0)->degraded_count(), 0u);

  OfferScaledBins(&svc, 2, 14, 4);
  ASSERT_TRUE(fault::Configure("serve.retrain.diverge=at:0").ok());
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());  // generation 2
  fault::Reset();

  auto snap = svc.snapshot(0);
  EXPECT_EQ(snap->generation, 2u);
  ASSERT_TRUE(snap->trained());
  EXPECT_EQ(snap->degraded_count(), 1u);
  const SnapshotCluster& d = snap->clusters[0];
  EXPECT_TRUE(d.degraded);
  // With a healthy generation 1 on the shelf, the fallback clones that model
  // rather than dropping all the way to the kernel baseline.
  EXPECT_EQ(d.model_kind, SnapshotCluster::ModelKind::kEnsemble);
  EXPECT_NE(d.degraded_reason.find("last-good generation 1"),
            std::string::npos);
  EXPECT_TRUE(std::isfinite(d.next_value));

  // Recovery: the next clean cycle re-fits everything and clears the flag.
  OfferScaledBins(&svc, 2, 18, 2);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  EXPECT_EQ(svc.snapshot(0)->degraded_count(), 0u);
  EXPECT_EQ(svc.Health().state, HealthState::kHealthy);
}

// The snapshot cluster that serves template `name` (null outside the top-K).
const SnapshotCluster* ClusterOf(const ServiceSnapshot& snap,
                                 const std::string& name) {
  for (size_t i = 0; i < snap.trace_names.size(); ++i) {
    if (snap.trace_names[i] != name) continue;
    for (const SnapshotCluster& c : snap.clusters) {
      if (c.cluster_id == snap.trace_cluster[i]) return &c;
    }
  }
  return nullptr;
}

std::vector<uint8_t> ModelBytes(const SnapshotCluster& c) {
  auto bytes = c.model->SaveState();
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

TEST_F(DegradedModeTest, RenumberedClusterServesItsOwnLastGoodModel) {
  // Cluster ids are Descender::Relabel's ordinals: a cluster is numbered by
  // its lowest member, and traces are ordered by template id. Twin templates
  // 0 and 1 appear in generation 2 and form the new cluster 0, so the
  // clusters of templates 2 and 3 move from ids 0 and 1 to ids 1 and 2.
  ServeOptions opts = FaultOptions();
  // Any finite forecast passes, so only the matching decides which model a
  // degraded cluster serves.
  opts.divergence_multiple = 0.0;
  ShardedForecastService svc(OneShard(opts));
  auto offer = [&svc](uint32_t id, int64_t bin, double count) {
    ASSERT_TRUE(svc.Offer({id, bin * kInterval + 30, count}));
  };
  auto offer_pair = [&offer](int64_t bin) {
    const double wave = 5.0 * std::sin(static_cast<double>(bin) * 0.4);
    offer(2, bin, 300.0 + wave);
    offer(3, bin, 150.0 - wave);
  };
  for (int64_t b = 0; b < 14; ++b) offer_pair(b);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());  // generation 1
  const auto gen1 = svc.snapshot(0);
  const SnapshotCluster* a1 = ClusterOf(*gen1, "template2");
  const SnapshotCluster* b1 = ClusterOf(*gen1, "template3");
  ASSERT_TRUE(a1 != nullptr && b1 != nullptr && a1 != b1);
  const std::vector<uint8_t> own = ModelBytes(*a1);
  const std::vector<uint8_t> neighbour = ModelBytes(*b1);
  ASSERT_NE(own, neighbour);

  for (int64_t b = 14; b < 18; ++b) {
    offer(0, b, 20.0);
    offer(1, b, 20.0);
    offer_pair(b);
  }
  // Template 2's cluster has the largest volume, so the snapshot build
  // examines (and diverges) it first.
  ASSERT_TRUE(fault::Configure("serve.retrain.diverge=at:0").ok());
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());  // generation 2
  fault::Reset();

  const auto gen2 = svc.snapshot(0);
  ASSERT_EQ(gen2->generation, 2u);
  const SnapshotCluster* a2 = ClusterOf(*gen2, "template2");
  ASSERT_NE(a2, nullptr);
  // The renumbering: template 2's cluster now has template 3's old id.
  EXPECT_EQ(a2->cluster_id, b1->cluster_id);
  EXPECT_EQ(gen2->degraded_count(), 1u);
  ASSERT_TRUE(a2->degraded);
  EXPECT_EQ(a2->model_kind, SnapshotCluster::ModelKind::kEnsemble);
  EXPECT_NE(a2->degraded_reason.find("last-good generation 1"),
            std::string::npos);
  const std::vector<uint8_t> served = ModelBytes(*a2);
  EXPECT_EQ(served, own);
  EXPECT_NE(served, neighbour);
}

// --------------------------------------------------------------------------
// Crash-safe on-disk checkpoints.

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Removes a checkpoint's manifest and shard files with their `.bak`/`.tmp`
// siblings, so every test starts from an empty slot.
void RemoveCheckpoint(const std::string& base, size_t shards) {
  std::vector<std::string> paths = {ShardedForecastService::ManifestPath(base)};
  for (size_t i = 0; i < shards; ++i) {
    paths.push_back(ShardedForecastService::ShardPath(base, i));
  }
  for (const std::string& p : paths) {
    for (const char* suffix : {"", ".bak", ".tmp"}) {
      std::remove((p + suffix).c_str());
    }
  }
}

TEST_F(CheckpointFaultTest, CorruptPrimarySweepRecoversLastGood) {
  ServeOptions opts = FaultOptions();
  ShardedForecastService svc(OneShard(opts));
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_sweep";
  const std::string path = ShardedForecastService::ShardPath(base, 0);
  const std::string manifest = ShardedForecastService::ManifestPath(base);
  RemoveCheckpoint(base, 1);

  OfferScaledBins(&svc, 2, 0, 14);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // generation 1 → primary
  OfferScaledBins(&svc, 2, 14, 4);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // generation 2 → primary, 1 → .bak

  const std::vector<uint8_t> pristine = ReadFileBytes(path);
  const std::vector<uint8_t> pristine_manifest = ReadFileBytes(manifest);
  ASSERT_GT(pristine.size(), 32u);

  // Sanity: the intact primary restores generation 2.
  {
    ShardedForecastService fresh(OneShard(opts));
    ASSERT_TRUE(fresh.LoadFromFiles(base).ok());
    EXPECT_EQ(fresh.shard(0).generation(), 2u);
  }

  // The restored generation tells which copy a load used: 2 is the primary,
  // 1 the shard file's `.bak`.
  ShardedForecastService target(OneShard(opts));
  auto expect_restores = [&](uint64_t gen, const std::string& what) {
    Status st = target.LoadFromFiles(base);
    ASSERT_TRUE(st.ok()) << what << ": " << st.message();
    EXPECT_EQ(target.shard(0).generation(), gen) << what;
  };

  // Every single corruption of a frame — truncation (empty file, mid-header,
  // mid-payload, missing footer byte) or a bit flip in the 16-byte header,
  // the 4-byte CRC footer, or a stride across the CRC-covered payload — must
  // be caught by the frame checks and recover the file's `.bak`.
  auto corruptions = [](const std::vector<uint8_t>& good) {
    std::vector<std::pair<std::string, std::vector<uint8_t>>> out;
    for (size_t len : {size_t{0}, size_t{7}, size_t{15}, good.size() / 2,
                       good.size() - 1}) {
      out.emplace_back(
          "truncate to " + std::to_string(len),
          std::vector<uint8_t>(good.begin(),
                               good.begin() + static_cast<long>(len)));
    }
    std::vector<size_t> positions;
    for (size_t i = 0; i < 16; ++i) positions.push_back(i);
    for (size_t i = good.size() - 4; i < good.size(); ++i) {
      positions.push_back(i);
    }
    size_t stride = std::max<size_t>(1, (good.size() - 20) / 64);
    for (size_t i = 16; i + 4 < good.size(); i += stride) {
      positions.push_back(i);
    }
    for (size_t pos : positions) {
      std::vector<uint8_t> bad = good;
      bad[pos] ^= 0x40;
      out.emplace_back("flip byte " + std::to_string(pos), std::move(bad));
    }
    return out;
  };
  for (const auto& [what, bad] : corruptions(pristine)) {
    WriteFileBytes(path, bad);
    expect_restores(1, "shard file " + what);
  }
  WriteFileBytes(path, pristine);
  // The manifest's `.bak` holds the same layout, so a corrupt manifest
  // recovers without touching the generation-2 shard file.
  for (const auto& [what, bad] : corruptions(pristine_manifest)) {
    WriteFileBytes(manifest, bad);
    expect_restores(2, "manifest " + what);
  }
  WriteFileBytes(manifest, pristine_manifest);
  expect_restores(2, "pristine");

  // Both copies destroyed → a descriptive error, and the target keeps
  // serving whatever it had (the last restored generation).
  WriteFileBytes(path, std::vector<uint8_t>{1, 2, 3});
  WriteFileBytes(path + ".bak", std::vector<uint8_t>{4, 5, 6});
  EXPECT_FALSE(target.LoadFromFiles(base).ok());
  EXPECT_EQ(target.shard(0).generation(), 2u);

  RemoveCheckpoint(base, 1);
}

TEST_F(CheckpointFaultTest, CrcValidButInvalidShardFileRetriesItsBak) {
  ServeOptions opts = FaultOptions();
  ShardedForecastService svc(OneShard(opts));
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_bak_retry";
  const std::string path = ShardedForecastService::ShardPath(base, 0);
  RemoveCheckpoint(base, 1);

  OfferScaledBins(&svc, 2, 0, 14);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // generation 1
  const std::vector<uint8_t> gen1_file = ReadFileBytes(path);
  OfferScaledBins(&svc, 2, 14, 4);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // generation 2

  // Nudge the generation-2 cluster-0 forecast by one ulp and frame it with a
  // valid CRC: the frame check passes, and it is ParseStateSection that
  // rejects the primary (the restored ensemble no longer reproduces it).
  auto framed = ::dbaugur::LoadFromFile(path);
  ASSERT_TRUE(framed.ok());
  std::vector<uint8_t> payload = framed->blob;
  auto f0 = svc.snapshot(0)->ForecastCluster(0);
  ASSERT_TRUE(f0.ok());
  uint8_t pattern[8];
  std::memcpy(pattern, &*f0, sizeof(pattern));
  auto it = std::search(payload.begin(), payload.end(), std::begin(pattern),
                        std::end(pattern));
  ASSERT_NE(it, payload.end());
  *it ^= 0x01;
  ASSERT_TRUE(::dbaugur::SaveToFile(path, payload).ok());
  WriteFileBytes(path + ".bak", gen1_file);

  ShardedForecastService target(OneShard(opts));
  Status st = target.LoadFromFiles(base);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(target.shard(0).generation(), 1u);  // restored from `.bak`

  // With the `.bak` invalid as well the load fails and changes nothing.
  ASSERT_TRUE(::dbaugur::SaveToFile(path, payload).ok());
  ShardedForecastService untouched(OneShard(opts));
  EXPECT_FALSE(untouched.LoadFromFiles(base).ok());
  EXPECT_EQ(untouched.shard(0).generation(), 0u);

  RemoveCheckpoint(base, 1);
}

TEST_F(CheckpointFaultTest, InjectedSaveFaultsNeverDamageThePreviousFile) {
  ServeOptions opts = FaultOptions();
  ShardedForecastService svc(OneShard(opts));
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_faults";
  const std::string path = ShardedForecastService::ShardPath(base, 0);
  RemoveCheckpoint(base, 1);

  OfferScaledBins(&svc, 2, 0, 14);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  ASSERT_TRUE(svc.SaveToFiles(base).ok());  // good generation-1 checkpoint
  const std::vector<uint8_t> good = ReadFileBytes(path);

  OfferScaledBins(&svc, 2, 14, 4);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());  // generation 2, not on disk

  // Torn write / failed fsync abort before any rename: the installed
  // generation-1 shard file is untouched, byte for byte.
  for (const char* site : {"binio.save.write", "binio.save.sync"}) {
    ASSERT_TRUE(fault::Configure(std::string(site) + "=n:1").ok());
    EXPECT_FALSE(svc.SaveToFiles(base).ok()) << site;
    fault::Reset();
    EXPECT_EQ(ReadFileBytes(path), good) << site;
    ShardedForecastService fresh(OneShard(opts));
    ASSERT_TRUE(fresh.LoadFromFiles(base).ok()) << site;
    EXPECT_EQ(fresh.shard(0).generation(), 1u) << site;
  }

  // A failed final rename is the crash window between the two renames: the
  // primary has already moved to `.bak`, and recovery serves it from there.
  ASSERT_TRUE(fault::Configure("binio.save.rename=n:1").ok());
  EXPECT_FALSE(svc.SaveToFiles(base).ok());
  fault::Reset();
  {
    ShardedForecastService fresh(OneShard(opts));
    ASSERT_TRUE(fresh.LoadFromFiles(base).ok());
    EXPECT_EQ(fresh.shard(0).generation(), 1u);
    EXPECT_EQ(ReadFileBytes(path + ".bak"), good);
  }

  // With faults cleared the pending generation lands, atomically.
  ASSERT_TRUE(svc.SaveToFiles(base).ok());
  ShardedForecastService fresh(OneShard(opts));
  ASSERT_TRUE(fresh.LoadFromFiles(base).ok());
  EXPECT_EQ(fresh.shard(0).generation(), 2u);

  RemoveCheckpoint(base, 1);
}

TEST_F(CheckpointFaultTest, LoadFromMissingFileFails) {
  ShardedForecastService svc(OneShard(FaultOptions()));
  Status st =
      svc.LoadFromFiles(::testing::TempDir() + "dbaugur_no_such_ckpt");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(svc.shard(0).generation(), 0u);
}

// --------------------------------------------------------------------------
// Counts read from a checkpoint are untrusted: a CRC-valid file declaring
// far more records than it holds is rejected before anything is sized by the
// count, and the service keeps serving.

void PutU64(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  ASSERT_LE(off + 8, b->size());
  for (int i = 0; i < 8; ++i) {
    (*b)[off + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

constexpr uint64_t kHugeCount = uint64_t{1} << 60;

// A generation-1 single-shard checkpoint at `base`, saved by `svc`.
void SaveGenerationOne(ShardedForecastService* svc, const std::string& base) {
  RemoveCheckpoint(base, 1);
  OfferScaledBins(svc, 2, 0, 14);
  ASSERT_TRUE(svc->shard(0).RetrainOnce().ok());
  ASSERT_TRUE(svc->SaveToFiles(base).ok());
}

TEST_F(CheckpointFaultTest, OversizedManifestShardCountIsRejected) {
  ServeOptions opts = FaultOptions();
  ShardedForecastService svc(OneShard(opts));
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_huge_manifest";
  SaveGenerationOne(&svc, base);

  // Manifest: U32 magic, U32 version, U64 shard_count, ... (sharded_service.h).
  const std::string manifest = ShardedForecastService::ManifestPath(base);
  auto framed = ::dbaugur::LoadFromFile(manifest);
  ASSERT_TRUE(framed.ok());
  std::vector<uint8_t> payload = framed->blob;
  PutU64(&payload, 8, kHugeCount);
  ASSERT_TRUE(::dbaugur::SaveToFile(manifest, payload).ok());
  std::remove((manifest + ".bak").c_str());

  ShardedForecastService target(OneShard(opts));
  OfferScaledBins(&target, 2, 0, 14);
  ASSERT_TRUE(target.shard(0).RetrainOnce().ok());
  const auto before = target.snapshot(0);
  EXPECT_FALSE(target.LoadFromFiles(base).ok());
  EXPECT_EQ(target.snapshot(0), before);  // still serving its generation 1
  EXPECT_EQ(target.shard(0).generation(), 1u);

  RemoveCheckpoint(base, 1);
}

TEST_F(CheckpointFaultTest, OversizedSnapshotCountsAreRejected) {
  ServeOptions opts = FaultOptions();
  ShardedForecastService svc(OneShard(opts));
  const std::string base = ::testing::TempDir() + "dbaugur_ckpt_huge_counts";
  SaveGenerationOne(&svc, base);
  const std::string path = ShardedForecastService::ShardPath(base, 0);
  auto framed = ::dbaugur::LoadFromFile(path);
  ASSERT_TRUE(framed.ok());
  const std::vector<uint8_t> payload = framed->blob;

  // Walk the shard file to the three counts DeserializeSnapshot reads before
  // any record: traces, clusters, and cluster 0's representative length.
  BufReader r(payload);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint8_t u8 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  double f64 = 0.0;
  std::string str;
  std::vector<uint8_t> bytes;
  // Shard file header, then the state section up to the snapshot's Bytes
  // length prefix, then the snapshot's magic, version and generation.
  ASSERT_TRUE(r.U32(&u32) && r.U32(&u32) && r.U64(&u64) && r.U64(&u64));
  ASSERT_TRUE(r.U64(&u64) && r.Bytes(&bytes) && r.U8(&u8) && u8 == 1);
  ASSERT_TRUE(r.U32(&u32) && r.U32(&u32) && r.U32(&u32) && r.U64(&u64));
  const size_t traces_at = r.pos();
  uint64_t traces = 0;
  ASSERT_TRUE(r.U64(&traces));
  for (uint64_t i = 0; i < traces; ++i) {
    ASSERT_TRUE(r.Str(&str) && r.I32(&i32) && r.F64(&f64));
  }
  const size_t clusters_at = r.pos();
  ASSERT_TRUE(r.U64(&u64) && u64 > 0);
  ASSERT_TRUE(r.I32(&i32) && r.F64(&f64) && r.U64(&u64) && r.I64(&i64) &&
              r.I64(&i64) && r.Str(&str));
  const size_t rep_len_at = r.pos();

  ShardedForecastService target(OneShard(opts));
  OfferScaledBins(&target, 2, 0, 14);
  ASSERT_TRUE(target.shard(0).RetrainOnce().ok());
  const auto before = target.snapshot(0);
  const std::pair<const char*, size_t> counts[] = {
      {"trace count", traces_at},
      {"cluster count", clusters_at},
      {"representative length", rep_len_at}};
  for (const auto& [what, at] : counts) {
    std::vector<uint8_t> bad = payload;
    PutU64(&bad, at, kHugeCount);
    ASSERT_TRUE(::dbaugur::SaveToFile(path, bad).ok()) << what;
    std::remove((path + ".bak").c_str());
    EXPECT_FALSE(target.LoadFromFiles(base).ok()) << what;
    EXPECT_EQ(target.snapshot(0), before) << what;  // still serving
  }
  EXPECT_EQ(target.shard(0).generation(), 1u);

  RemoveCheckpoint(base, 1);
}

// --------------------------------------------------------------------------
// Checkpoint vs cancellation races: saves issued while retrains hang, crawl,
// or unwind from a watchdog cancellation must always produce complete,
// loadable, all-or-nothing checkpoints.

TEST_F(CheckpointFaultTest, SavesDuringCancelledRetrainCyclesStayLoadable) {
  // Three storms: every retrain hangs until the watchdog fires; every
  // retrain crawls through the slow fault (cancelled at the 20ms deadline
  // long before the ~200ms stall ends); a seeded mix of both.
  const char* kStorms[] = {
      "serve.retrain.hang=n:1000",
      "serve.retrain.slow=n:1000",
      "serve.retrain.hang=p:0.5:11;serve.retrain.slow=p:0.5:12",
  };
  for (const char* storm : kStorms) {
    fault::Reset();
    ShardedServeOptions so;
    so.shard = FaultOptions();
    so.shard_count = 2;
    so.retrain_workers = 2;
    so.retrain_deadline_seconds = 0.02;
    ShardedForecastService svc(so);
    for (int64_t b = 0; b < 14; ++b) {
      for (uint32_t t = 0; t < 4; ++t) {
        TraceEvent e;
        e.template_id = t;
        e.timestamp = b * kInterval + 30;
        e.count = 50.0 * static_cast<double>(t + 1);
        ASSERT_TRUE(svc.Offer(e));
      }
    }
    (void)svc.RetrainCycle();  // clean last-good state before the storm
    ASSERT_TRUE(fault::Configure(storm).ok()) << storm;

    // The cycler starts its cycles only when the first save is issued, so
    // that save contends with the first stalled cycle instead of finding
    // the storm already over.
    std::atomic<bool> go{false};
    std::atomic<bool> done{false};
    std::thread cycler([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 3; ++i) (void)svc.RetrainCycle();
      done.store(true, std::memory_order_release);
    });
    // Saves race the storm: each blocks at most ~one watchdog deadline
    // behind an in-flight cycle, then must write a checkpoint that loads
    // all-or-nothing into a fresh service.
    const std::string base = ::testing::TempDir() + "dbaugur_cancel_ckpt";
    go.store(true, std::memory_order_release);
    do {
      ASSERT_TRUE(svc.SaveToFiles(base).ok()) << storm;
      ShardedForecastService restored(so);
      ASSERT_TRUE(restored.LoadFromFiles(base).ok()) << storm;
      for (size_t s = 0; s < so.shard_count; ++s) {
        ASSERT_NE(restored.snapshot(s), nullptr) << storm;
      }
    } while (!done.load(std::memory_order_acquire));
    cycler.join();
  }
}

TEST_F(CheckpointFaultTest, ShardLevelSaveRacesASlowRetrainAndLoads) {
  // Below the scheduler: a direct shard retrain crawling through the slow
  // fault while SaveToFiles runs concurrently. The save serializes behind
  // the shard's retrain lock mid-stall and must still emit a loadable
  // checkpoint whether it lands before or after the publish.
  ShardedServeOptions so;
  so.shard = FaultOptions();
  so.shard_count = 2;
  ShardedForecastService svc(so);
  for (int64_t b = 0; b < 14; ++b) {
    for (uint32_t t = 0; t < 4; ++t) {
      TraceEvent e;
      e.template_id = t;
      e.timestamp = b * kInterval + 30;
      e.count = 50.0 * static_cast<double>(t + 1);
      ASSERT_TRUE(svc.Offer(e));
    }
  }
  ASSERT_TRUE(fault::Configure("serve.retrain.slow=n:1").ok());
  CancelToken token;  // never cancelled: the slow retrain completes
  std::thread retrainer(
      [&] { (void)svc.shard(0).RetrainOnce(nullptr, &token); });
  const std::string base = ::testing::TempDir() + "dbaugur_shard_race_ckpt";
  ASSERT_TRUE(svc.SaveToFiles(base).ok());
  retrainer.join();
  EXPECT_FALSE(token.cancelled());
  ShardedForecastService restored(so);
  ASSERT_TRUE(restored.LoadFromFiles(base).ok());
  for (size_t s = 0; s < so.shard_count; ++s) {
    ASSERT_NE(restored.snapshot(s), nullptr);
  }
}

// --------------------------------------------------------------------------
// Env-driven chaos storm (the check.sh fault pass sets DBAUGUR_FAULT_SPEC).

TEST_F(ServeFaultChaosTest, SurvivesEnvConfiguredFaultStorm) {
  const char* spec = std::getenv("DBAUGUR_FAULT_SPEC");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "set DBAUGUR_FAULT_SPEC to run the chaos storm";
  }
  ASSERT_TRUE(fault::Configure(spec).ok()) << "bad DBAUGUR_FAULT_SPEC";

  ShardedForecastService svc(OneShard(FaultOptions()));
  // Offers may bounce under an ingest-corruption storm — that is the point —
  // so unlike OfferScaledBins this helper tolerates rejection.
  auto offer_bins = [&svc](int64_t first_bin, int64_t bins) {
    for (int64_t b = first_bin; b < first_bin + bins; ++b) {
      for (uint32_t t = 0; t < 2; ++t) {
        double scale = 50.0 * static_cast<double>(2 - t);
        (void)svc.Offer(
            {t, b * kInterval + 30,
             scale + 5.0 * std::sin(static_cast<double>(b) * 0.4 + t)});
      }
    }
  };
  offer_bins(0, 14);
  // Drive cycles synchronously (1-core friendly) while the storm rages:
  // failures must be recorded, never published, and never fatal.
  int failures = 0;
  for (int cycle = 0; cycle < 8; ++cycle) {
    offer_bins(14 + 2 * cycle, 2);
    if (!svc.shard(0).RetrainOnce().ok()) ++failures;
    auto snap = svc.snapshot(0);
    ASSERT_NE(snap, nullptr);
    if (snap->trained()) {
      auto f = snap->ForecastCluster(0);
      ASSERT_TRUE(f.ok());
      EXPECT_TRUE(std::isfinite(*f));
    }
  }
  // Once the storm clears, the service recovers to a healthy publish.
  fault::Reset();
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  EXPECT_GE(svc.shard(0).generation(), 1u);
  ServeStats s = svc.stats();
  EXPECT_EQ(s.retrains_failed, static_cast<uint64_t>(failures));
  EXPECT_EQ(s.consecutive_failures, 0u);
}

}  // namespace
}  // namespace dbaugur::serve
