// Sharded serving tests: hash routing invariants, deterministic priority
// scheduling with a starvation bound, shard_count=1 bit-identity against a
// bare ServiceShard, multi-shard per-cluster forecast identity against the
// single-shard service, per-shard seed-stream positions across save/load,
// re-hash migration key-set equality, every accepted event binned within
// one cycle whatever the budget, a Health() that never waits behind a
// cycle, and a concurrent producers + readers + scheduler smoke the
// sanitizer presets (ASan/TSan) exercise.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/hashing.h"
#include "serve/retrain_scheduler.h"
#include "serve/sharded_service.h"
#include "serve/snapshot.h"

namespace dbaugur::serve {
namespace {

constexpr int64_t kInterval = 600;

using BinMap = std::map<uint32_t, std::map<int64_t, double>>;

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

/// Union of every shard's binned history (each template lives on one shard).
BinMap AllBinContents(ShardedForecastService* svc) {
  BinMap all;
  for (size_t s = 0; s < svc->shard_count(); ++s) {
    BinMap bins = svc->shard(s).BinContents();
    all.insert(bins.begin(), bins.end());
  }
  return all;
}

/// member-name-set -> precomputed cluster forecast, for cross-run matching.
std::map<std::set<std::string>, double> ClusterForecastsByMembers(
    const ServiceSnapshot& snap) {
  std::map<std::set<std::string>, double> out;
  for (size_t rank = 0; rank < snap.clusters.size(); ++rank) {
    std::set<std::string> members;
    for (size_t i = 0; i < snap.trace_names.size(); ++i) {
      if (snap.trace_cluster[i] == snap.clusters[rank].cluster_id) {
        members.insert(snap.trace_names[i]);
      }
    }
    out[members] = snap.clusters[rank].next_value;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Routing invariants.

TEST(ShardRoutingTest, SameKeyAlwaysSameShard) {
  for (size_t count : {1u, 4u, 16u, 64u}) {
    for (uint32_t key = 0; key < 2000; ++key) {
      size_t first = ShardOfKey(key, count);
      EXPECT_LT(first, count);
      EXPECT_EQ(ShardOfKey(key, count), first);
    }
  }
}

TEST(ShardRoutingTest, OfferRoutesToTheShardShardOfReports) {
  ShardedServeOptions o;
  o.shard = FastOptions();
  o.shard_count = 4;
  ShardedForecastService svc(o);
  for (uint32_t id = 0; id < 64; ++id) {
    ASSERT_TRUE(svc.Offer(EventAt(id, 0, 1.0)));
    size_t owner = svc.ShardOf(id);
    EXPECT_EQ(svc.shard(owner).queue_depth() > 0, true);
  }
  uint64_t accepted = 0;
  for (size_t s = 0; s < svc.shard_count(); ++s) {
    accepted += svc.shard(s).stats().events_accepted;
  }
  EXPECT_EQ(accepted, 64u);
}

TEST(ShardRoutingTest, RoutingSpreadsKeysAcrossShards) {
  // Not a uniformity proof, just a guard against a degenerate hash: 4096
  // sequential ids must hit every one of 16 shards.
  std::set<size_t> hit;
  for (uint32_t id = 0; id < 4096; ++id) hit.insert(ShardOfKey(id, 16));
  EXPECT_EQ(hit.size(), 16u);
}

// ---------------------------------------------------------------------------
// Scheduler policy (pure function, pinned).

TEST(RetrainSchedulerTest, OrdersByPendingTimesStalenessWithIdTieBreak) {
  std::vector<ShardSignal> s = {
      {0, 10, 0, 0},  // priority 10
      {1, 5, 3, 0},   // priority 20
      {2, 0, 9, 0},   // no pending: never scheduled (work-conserving)
      {3, 10, 1, 0},  // priority 20 — ties toward lower id, after shard 1
  };
  // Every eligible shard has waited fewer than kStarvationCycles cycles.
  EXPECT_EQ(ScheduleRetrains(s, 0), (std::vector<size_t>{1, 3, 0}));
  EXPECT_EQ(ScheduleRetrains(s, 2), (std::vector<size_t>{1, 3}));
}

TEST(RetrainSchedulerTest, StarvedShardsPromoteAheadOfHotOnes) {
  std::vector<ShardSignal> s = {
      {0, 1000000, 0, 0},  // hottest by far
      {1, 1, 5, 0},        // starved (waited >= 4)
      {2, 1, 7, 0},        // starved longer — first
  };
  EXPECT_EQ(ScheduleRetrains(s, 0), (std::vector<size_t>{2, 1, 0}));
}

TEST(RetrainSchedulerTest, PromotesAtExactlyFourCyclesWaited) {
  ASSERT_EQ(kStarvationCycles, 4u);
  std::vector<ShardSignal> s = {
      {0, 1000000, 0, 0},  // hottest by far
      {1, 1, 3, 0},        // one cycle short of the threshold: by priority
      {2, 1, 4, 0},        // at the threshold: promoted
  };
  EXPECT_EQ(ScheduleRetrains(s, 0), (std::vector<size_t>{2, 0, 1}));
}

TEST(RetrainSchedulerTest, FailureBackoffGatesEligibilityInCycles) {
  EXPECT_EQ(BackoffCycles(0), 0u);
  EXPECT_EQ(BackoffCycles(1), 1u);
  EXPECT_EQ(BackoffCycles(3), 4u);
  EXPECT_EQ(BackoffCycles(7), 64u);
  EXPECT_EQ(BackoffCycles(8), 64u);  // capped at 64 cycles
  EXPECT_EQ(BackoffCycles(64), 64u);

  // 2 failures -> backoff 2 cycles: ineligible at waited 1, eligible at 2.
  std::vector<ShardSignal> waiting = {{0, 50, 1, 2}};
  EXPECT_TRUE(ScheduleRetrains(waiting, 0).empty());
  std::vector<ShardSignal> ready = {{0, 50, 2, 2}};
  EXPECT_EQ(ScheduleRetrains(ready, 0), (std::vector<size_t>{0}));
  // Starvation promotion never overrides the backoff gate: 4 failures back
  // off 8 cycles, and waited 5 is past the starvation threshold.
  std::vector<ShardSignal> starved_but_failing = {{0, 50, 5, 4}};
  EXPECT_TRUE(ScheduleRetrains(starved_but_failing, 0).empty());
}

TEST(RetrainSchedulerTest, StarvationBoundHoldsUnderConstantPressure) {
  // 6 shards, all always pending, budget 2, starvation threshold 4: every
  // shard must be scheduled at least once every K = 4 + ceil(6/2) = 7 cycles.
  constexpr size_t kShards = 6;
  constexpr size_t kBudget = 2;
  constexpr uint64_t kBound =
      kStarvationCycles + (kShards + kBudget - 1) / kBudget;
  static_assert(kBound == 7);
  std::vector<uint64_t> waited(kShards, 0);
  for (int cycle = 0; cycle < 60; ++cycle) {
    std::vector<ShardSignal> signals;
    for (size_t i = 0; i < kShards; ++i) {
      // Skewed constant pressure: shard 0 dwarfs the rest every cycle.
      uint64_t pending = i == 0 ? 1000000 : 10 + static_cast<uint64_t>(i);
      signals.push_back({i, pending, waited[i], 0});
    }
    std::vector<size_t> order = ScheduleRetrains(signals, kBudget);
    EXPECT_LE(order.size(), kBudget);
    for (size_t i = 0; i < kShards; ++i) ++waited[i];
    for (size_t id : order) waited[id] = 0;
    for (size_t i = 0; i < kShards; ++i) {
      EXPECT_LE(waited[i], kBound) << "shard " << i << " starved at cycle "
                                   << cycle;
    }
  }
}

// ---------------------------------------------------------------------------
// shard_count = 1: bit-identical to a bare ServiceShard.

TEST(ShardedServiceTest, SingleShardIsBitIdenticalToABareServiceShard) {
  ServeOptions base = FastOptions();
  ServiceShard reference(base, 0);
  ShardedServeOptions so;
  so.shard = base;
  so.shard_count = 1;
  ShardedForecastService sharded(so);

  auto offer_both = [&](ShardedForecastService* svc, int64_t first_bin,
                        int64_t bins) {
    for (int64_t b = first_bin; b < first_bin + bins; ++b) {
      for (uint32_t t = 0; t < 6; ++t) {
        double count = 50.0 + 20.0 * std::sin(0.4 * static_cast<double>(b) +
                                              static_cast<double>(t));
        ASSERT_TRUE(reference.Offer(EventAt(t, b, count)));
        ASSERT_TRUE(svc->Offer(EventAt(t, b, count)));
      }
    }
  };
  auto serialized = [](const ServiceSnapshot& snap) {
    BufWriter w;
    EXPECT_TRUE(SerializeSnapshot(snap, &w).ok());
    return w.Take();
  };

  offer_both(&sharded, 0, 12);
  ASSERT_TRUE(reference.RetrainOnce().ok());
  EXPECT_EQ(sharded.RetrainCycle(), (std::vector<size_t>{0}));
  offer_both(&sharded, 12, 2);
  ASSERT_TRUE(reference.RetrainOnce().ok());
  EXPECT_EQ(sharded.RetrainCycle(), (std::vector<size_t>{0}));

  auto ref_snap = reference.snapshot();
  auto sh_snap = sharded.snapshot(0);
  ASSERT_TRUE(ref_snap->trained());
  ASSERT_TRUE(sh_snap->trained());
  EXPECT_EQ(ref_snap->generation, sh_snap->generation);

  // Bit-identical snapshots: the serialized forms must match byte for byte.
  EXPECT_EQ(serialized(*ref_snap), serialized(*sh_snap));
  for (size_t rank = 0; rank < ref_snap->cluster_count(); ++rank) {
    auto fr = ref_snap->ForecastCluster(rank);
    auto fs = sh_snap->ForecastCluster(rank);
    ASSERT_TRUE(fr.ok());
    ASSERT_TRUE(fs.ok());
    EXPECT_EQ(*fr, *fs);  // bit-identical, not merely close
  }

  // Save/load round trip: the single-shard checkpoint restores into a fresh
  // service, whose *next* retrain is bit-identical to the uninterrupted
  // shard's next retrain (same seed-stream position).
  const std::string base_path = ::testing::TempDir() + "dbaugur_shard1_ckpt";
  ASSERT_TRUE(sharded.SaveToFiles(base_path).ok());
  ShardedForecastService restored(so);
  bool migrated = true;
  ASSERT_TRUE(restored.LoadFromFiles(base_path, &migrated).ok());
  EXPECT_FALSE(migrated);

  offer_both(&restored, 14, 2);
  ASSERT_TRUE(reference.RetrainOnce().ok());
  EXPECT_EQ(restored.RetrainCycle(), (std::vector<size_t>{0}));
  auto ref2_snap = reference.snapshot();
  auto rest_snap = restored.snapshot(0);
  EXPECT_EQ(ref2_snap->generation, rest_snap->generation);
  EXPECT_EQ(serialized(*ref2_snap), serialized(*rest_snap));
}

// ---------------------------------------------------------------------------
// shard_count > 1: per-cluster forecasts match the single-shard run.

TEST(ShardedServiceTest, MultiShardClustersMatchSingleShardBitIdentical) {
  // Three template groups, each group entirely on one shard of a 3-shard
  // layout, each group sharing one waveform (distinct across groups). The
  // single-shard reference clusters the same groups, so every cluster's
  // member set exists in both runs and its forecast must be bit-identical:
  // same members, same traces, same seed-stream position (both services
  // trained the same number of cycles from the same base seed).
  constexpr size_t kShards = 3;
  auto groups = TemplatesByShard(kShards, 4);
  // Per-group shapes dissimilar even under z-normalized DTW (sine frequencies
  // alone warp together): smooth sine, monotonic ramp, bin-rate alternation.
  auto waveform = [](size_t g, int64_t b) {
    double t = static_cast<double>(b);
    switch (g) {
      case 0:
        return 60.0 + 25.0 * std::sin(0.5 * t);
      case 1:
        return 10.0 + 8.0 * t;
      default:
        return 50.0 + (b % 2 == 0 ? 40.0 : -40.0);
    }
  };

  ServeOptions base = FastOptions();
  // Traces within a group are identical (z-normalized DTW distance 0); a
  // tight radius keeps the three groups from chaining into one cluster.
  base.pipeline.clustering.radius = 1.0;
  ShardedServeOptions one;
  one.shard = base;
  one.shard_count = 1;
  ShardedForecastService reference(one);
  ShardedServeOptions so = one;
  so.shard_count = kShards;
  ShardedForecastService sharded(so);

  for (int64_t b = 0; b < 12; ++b) {
    for (size_t g = 0; g < kShards; ++g) {
      for (uint32_t id : groups[g]) {
        double count = waveform(g, b);
        ASSERT_TRUE(reference.Offer(EventAt(id, b, count)));
        ASSERT_TRUE(sharded.Offer(EventAt(id, b, count)));
      }
    }
  }
  EXPECT_EQ(reference.RetrainCycle(), (std::vector<size_t>{0}));
  std::vector<size_t> order = sharded.RetrainCycle();
  EXPECT_EQ(order.size(), kShards);  // every shard had pending traffic

  auto ref_map = ClusterForecastsByMembers(*reference.snapshot(0));
  ASSERT_EQ(ref_map.size(), kShards);  // one cluster per group
  size_t matched = 0;
  for (size_t s = 0; s < kShards; ++s) {
    auto snap = sharded.snapshot(s);
    ASSERT_TRUE(snap->trained()) << "shard " << s;
    auto shard_map = ClusterForecastsByMembers(*snap);
    for (const auto& [members, value] : shard_map) {
      auto it = ref_map.find(members);
      ASSERT_NE(it, ref_map.end())
          << "shard " << s << " cluster members not found in single-shard run";
      EXPECT_EQ(it->second, value);  // bit-identical
      ++matched;
    }
  }
  EXPECT_EQ(matched, ref_map.size());
}

// ---------------------------------------------------------------------------
// Per-shard seed streams across save/load (satellite: single-Retrainer fix).

TEST(ShardedServiceTest, SaveMidStreamWithUnequalCycleCountsRestoresExactly) {
  constexpr size_t kShards = 2;
  auto groups = TemplatesByShard(kShards, 2);
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = kShards;
  ShardedForecastService svc(so);

  auto offer_group = [&](ShardedForecastService* s, size_t g, int64_t first,
                         int64_t bins) {
    for (int64_t b = first; b < first + bins; ++b) {
      for (uint32_t id : groups[g]) {
        double count =
            40.0 + 15.0 * std::sin((0.5 + static_cast<double>(g)) *
                                   static_cast<double>(b));
        ASSERT_TRUE(s->Offer(EventAt(id, b, count)));
      }
    }
  };

  // Shard 0 trains twice; shard 1 never trains (events stay queued).
  offer_group(&svc, 0, 0, 12);
  (void)svc.RetrainCycle();
  offer_group(&svc, 0, 12, 2);
  (void)svc.RetrainCycle();
  offer_group(&svc, 1, 0, 12);  // queued, folded by SaveToFiles
  ASSERT_EQ(svc.shard(0).stats().retrains_completed, 2u);
  ASSERT_EQ(svc.shard(1).stats().retrains_completed, 0u);

  const std::string base_path = ::testing::TempDir() + "dbaugur_midcycle_ckpt";
  ASSERT_TRUE(svc.SaveToFiles(base_path).ok());
  ShardedForecastService restored(so);
  ASSERT_TRUE(restored.LoadFromFiles(base_path).ok());

  // Drive both with identical further traffic; each shard's next retrain
  // must be bit-identical — shard 0 resumes its seed stream at cycle 2,
  // shard 1 at cycle 0, independently.
  for (auto* s : {&svc, &restored}) {
    offer_group(s, 0, 14, 2);
    offer_group(s, 1, 12, 2);
    (void)s->RetrainCycle();
  }
  for (size_t shard = 0; shard < kShards; ++shard) {
    auto a = svc.snapshot(shard);
    auto b = restored.snapshot(shard);
    ASSERT_TRUE(a->trained()) << "shard " << shard;
    EXPECT_EQ(a->generation, b->generation);
    BufWriter wa, wb;
    ASSERT_TRUE(SerializeSnapshot(*a, &wa).ok());
    ASSERT_TRUE(SerializeSnapshot(*b, &wb).ok());
    EXPECT_EQ(wa.Take(), wb.Take()) << "shard " << shard;
  }
}

// ---------------------------------------------------------------------------
// Re-hash migration.

TEST(ShardedServiceTest, MigrationAcrossShardCountsLosesNoClusterKeys) {
  ShardedServeOptions four;
  four.shard = FastOptions();
  four.shard_count = 4;
  ShardedForecastService svc4(four);
  // 24 templates spread over all shards, enough bins to train everywhere.
  for (int64_t b = 0; b < 12; ++b) {
    for (uint32_t id = 0; id < 24; ++id) {
      double count = 30.0 + 10.0 * std::sin(0.7 * static_cast<double>(b) +
                                            static_cast<double>(id % 3));
      ASSERT_TRUE(svc4.Offer(EventAt(id, b, count)));
    }
  }
  (void)svc4.RetrainCycle();
  std::set<std::string> before;
  for (size_t s = 0; s < svc4.shard_count(); ++s) {
    auto snap = svc4.snapshot(s);
    before.insert(snap->trace_names.begin(), snap->trace_names.end());
  }
  ASSERT_EQ(before.size(), 24u);

  const std::string base_path = ::testing::TempDir() + "dbaugur_migrate_ckpt";
  ASSERT_TRUE(svc4.SaveToFiles(base_path).ok());

  ShardedServeOptions two = four;
  two.shard_count = 2;
  ShardedForecastService svc2(two);
  bool migrated = false;
  ASSERT_TRUE(svc2.LoadFromFiles(base_path, &migrated).ok());
  EXPECT_TRUE(migrated);
  // Migration restores shards untrained (snapshots cannot be re-keyed); one
  // event per template makes every shard pending so one cycle rebuilds all.
  for (uint32_t id = 0; id < 24; ++id) {
    ASSERT_TRUE(svc2.Offer(EventAt(id, 12, 30.0)));
  }
  (void)svc2.RetrainCycle();
  std::set<std::string> after;
  for (size_t s = 0; s < svc2.shard_count(); ++s) {
    auto snap = svc2.snapshot(s);
    ASSERT_TRUE(snap->trained()) << "shard " << s;
    after.insert(snap->trace_names.begin(), snap->trace_names.end());
  }
  EXPECT_EQ(after, before);  // set equality: no template keys lost
}

// ---------------------------------------------------------------------------
// Determinism of the end-to-end schedule.

TEST(ShardedServiceTest, IdenticalStreamsYieldIdenticalRetrainOrder) {
  auto run = [](std::vector<std::vector<size_t>>* orders) {
    ShardedServeOptions so;
    so.shard = FastOptions();
    so.shard_count = 4;
    so.retrain_budget = 2;
    ShardedForecastService svc(so);
    for (int64_t b = 0; b < 14; ++b) {
      for (uint32_t id = 0; id < 32; ++id) {
        // Skewed volume so the priority order is non-trivial.
        double count = 5.0 + static_cast<double>(id % 7);
        ASSERT_TRUE(svc.Offer(EventAt(id, b, count)));
      }
      orders->push_back(svc.RetrainCycle());
    }
  };
  std::vector<std::vector<size_t>> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
  size_t scheduled = 0;
  for (const auto& o : first) scheduled += o.size();
  EXPECT_GT(scheduled, 0u);
}

// ---------------------------------------------------------------------------
// No event is dropped to shed retrain work: every cycle folds every queue.

TEST(ShardedServiceTest, UnitBudgetFoldsEveryQueueAndDropsNothing) {
  // One retrain per cycle over 16 shards, so a shard waits ~16 cycles
  // between retrains. Each bin brings a shard an eighth of its queue, and 16
  // bins bring it twice the queue: only a queue folded every cycle holds
  // every event.
  constexpr size_t kShards = 16;
  constexpr int kPerTemplate = 8;
  auto groups = TemplatesByShard(kShards, 4);
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard.queue_capacity = 256;
  so.shard_count = kShards;
  so.retrain_budget = 1;
  ShardedForecastService svc(so);
  BinMap accepted;
  for (int64_t b = 0; b < 24; ++b) {
    for (const auto& group : groups) {
      for (uint32_t id : group) {
        for (int k = 0; k < kPerTemplate; ++k) {
          const double count = 1.0 + static_cast<double>((id + b + k) % 4);
          if (svc.Offer(EventAt(id, b, count))) accepted[id][b] += count;
        }
      }
    }
    EXPECT_LE(svc.RetrainCycle().size(), 1u);
    ASSERT_EQ(svc.Health().drops.full, 0u) << "bin " << b;
    ASSERT_EQ(AllBinContents(&svc), accepted) << "bin " << b;
  }
}

TEST(ShardedServiceTest, GrowingTrafficAtDefaultOptionsDropsNothing) {
  // Per-shard traffic grows every bin, and no bin brings a shard half of the
  // default queue. Growing traffic is not a service falling behind: every
  // cycle retrains every pending shard and leaves no event unbinned.
  constexpr size_t kShards = 4;
  auto groups = TemplatesByShard(kShards, 3);
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard.queue_capacity = ServeOptions().queue_capacity;
  so.shard_count = kShards;
  ShardedForecastService svc(so);
  BinMap accepted;
  for (int64_t b = 0; b < 16; ++b) {
    const int per_template = 40 * static_cast<int>(b + 1);
    for (const auto& group : groups) {
      for (uint32_t id : group) {
        for (int k = 0; k < per_template; ++k) {
          const double count = 1.0 + static_cast<double>((id + k) % 3);
          if (svc.Offer(EventAt(id, b, count))) accepted[id][b] += count;
        }
      }
    }
    EXPECT_EQ(svc.RetrainCycle().size(), kShards) << "bin " << b;
    ASSERT_EQ(svc.Health().drops.full, 0u) << "bin " << b;
    ASSERT_EQ(AllBinContents(&svc), accepted) << "bin " << b;
  }
}

// ---------------------------------------------------------------------------
// Health surface.

TEST(ShardedServiceTest, HealthReportsPerShardRows) {
  constexpr size_t kShards = 3;
  auto groups = TemplatesByShard(kShards, 2);
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = kShards;
  ShardedForecastService svc(so);
  // Train shard 0 only; leave shard 1 queued; shard 2 idle.
  for (int64_t b = 0; b < 12; ++b) {
    for (uint32_t id : groups[0]) {
      ASSERT_TRUE(svc.Offer(EventAt(id, b, 20.0 + static_cast<double>(b))));
    }
  }
  (void)svc.RetrainCycle();
  for (uint32_t id : groups[1]) ASSERT_TRUE(svc.Offer(EventAt(id, 0, 5.0)));

  ShardedServiceHealth h = svc.Health();
  ASSERT_EQ(h.shards.size(), kShards);
  EXPECT_EQ(h.cycles, 1u);
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(h.shards[s].shard_id, s);
  }
  EXPECT_EQ(h.shards[0].state, HealthState::kHealthy);
  EXPECT_GE(h.shards[0].generation, 1u);
  EXPECT_GT(h.shards[0].cluster_count, 0u);
  EXPECT_GT(h.shards[0].last_retrain_seconds, 0.0);
  EXPECT_GE(h.shards[0].staleness_seconds, 0.0);
  EXPECT_EQ(h.shards[1].state, HealthState::kUntrained);
  EXPECT_GT(h.shards[1].queue_depth, 0u);
  EXPECT_EQ(h.shards[2].events_accepted, 0u);
  EXPECT_EQ(h.state, HealthState::kHealthy);  // worst-of aggregate
}

TEST(ShardedServiceTest, HealthDoesNotWaitForAnInFlightCycle) {
  fault::Reset();
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard_count = 1;
  ShardedForecastService svc(so);
  for (int64_t b = 0; b < 12; ++b) {
    for (uint32_t id = 0; id < 3; ++id) {
      ASSERT_TRUE(svc.Offer(EventAt(id, b, 20.0 + static_cast<double>(id))));
    }
  }
  // The cycle's retrain stalls ~200ms in the slow fault; Health() called
  // meanwhile must answer from the last completed cycle, not wait for this
  // one to finish.
  ASSERT_TRUE(fault::Configure("serve.retrain.slow=n:1").ok());
  std::thread cycler([&svc] { (void)svc.RetrainCycle(); });
  for (;;) {
    auto st = fault::Stats("serve.retrain.slow");
    if (st.ok() && st->hits >= 1) break;
    std::this_thread::yield();
  }
  ShardedServiceHealth h = svc.Health();
  EXPECT_EQ(svc.cycles(), 0u);  // the stalled cycle is still in flight
  EXPECT_EQ(h.cycles, 0u);
  ASSERT_EQ(h.shards.size(), 1u);
  EXPECT_EQ(h.shards[0].generation, 0u);
  cycler.join();
  fault::Reset();
  EXPECT_EQ(svc.cycles(), 1u);
  EXPECT_EQ(svc.Health().shards[0].generation, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency smoke (ASan/TSan): producers + readers + background scheduler.

TEST(ShardedServiceTest, ConcurrentProducersReadersSchedulerSmoke) {
  ShardedServeOptions so;
  so.shard = FastOptions();
  so.shard.retrain_interval_seconds = 0.001;
  so.shard_count = 4;
  so.retrain_workers = 2;
  ShardedForecastService svc(so);
  svc.Start();
  EXPECT_TRUE(svc.running());

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&svc, &stop, p] {
      int64_t b = 0;
      while (!stop.load(std::memory_order_acquire)) {
        for (uint32_t id = 0; id < 32; ++id) {
          (void)svc.Offer(EventAt(id, b % 40,
                                  10.0 + static_cast<double>(p + (b % 5))));
        }
        ++b;
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&svc, &stop] {
      uint32_t id = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = svc.SnapshotForTemplate(id++ % 32);
        ASSERT_NE(snap, nullptr);
        if (snap->trained()) (void)snap->ForecastCluster(0);
        (void)svc.Health();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Keep the load on until a retrain has published somewhere.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (svc.stats().generation == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  svc.Stop();
  EXPECT_FALSE(svc.running());
  EXPECT_GT(svc.cycles(), 0u);
  EXPECT_GE(svc.stats().generation, 1u);
  EXPECT_GT(svc.stats().events_accepted, 0u);
  // Start/Stop are idempotent.
  svc.Stop();
  svc.Start();
  EXPECT_TRUE(svc.running());
  svc.Stop();
  EXPECT_FALSE(svc.running());
}

}  // namespace
}  // namespace dbaugur::serve
