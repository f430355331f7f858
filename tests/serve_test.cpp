// Online serving tests: ingest queue semantics, binning, snapshot publication
// and generation/staleness rules, checkpoint save/load with bit-identical
// forecasts, and a concurrent producers + readers + scheduler smoke that the
// sanitizer presets (ASan/TSan) exercise. The service tests run the forecast
// service at shard_count = 1, the single-shard deployment.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "common/rng.h"
#include "heap_in_use.h"
#include "serve/ingestor.h"
#include "serve/sharded_service.h"
#include "serve/snapshot.h"

namespace dbaugur::serve {
namespace {

constexpr int64_t kInterval = 600;

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
  o.queue_capacity = 4096;
  o.retrain_interval_seconds = 0.005;
  return o;
}

/// The single-shard deployment of `o`.
ShardedServeOptions OneShard(const ServeOptions& o) {
  ShardedServeOptions so;
  so.shard = o;
  so.shard_count = 1;
  return so;
}

/// Offers `bins` bins of synthetic arrivals for `templates` templates,
/// starting at bin index `first_bin`. Every event lands in-queue (asserted).
void OfferBins(ShardedForecastService* svc, uint32_t templates,
               int64_t first_bin, int64_t bins) {
  for (int64_t b = first_bin; b < first_bin + bins; ++b) {
    for (uint32_t t = 0; t < templates; ++t) {
      double phase = static_cast<double>(b) * 0.4 + t;
      TraceEvent e;
      e.template_id = t;
      e.timestamp = b * kInterval + 30;
      e.count = 50.0 + 20.0 * std::sin(phase);
      ASSERT_TRUE(svc->Offer(e));
    }
  }
}

TEST(TraceIngestorTest, OfferDrainPreservesEventsInOrder) {
  TraceIngestor q(IngestorOptions{16, 64});
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.Offer({i, static_cast<ts::Timestamp>(i * 10), 2.0}));
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(q.Drain(&out), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(out[i].template_id, i);
  EXPECT_EQ(q.accepted(), 5u);
  EXPECT_EQ(q.dropped(), 0u);
  // Queue is empty again.
  out.clear();
  EXPECT_EQ(q.Drain(&out), 0u);
}

TEST(TraceIngestorTest, DropsWhenFullAndOnBadTemplateId) {
  TraceIngestor q(IngestorOptions{2, 8});
  EXPECT_TRUE(q.Offer({0, 0, 1.0}));
  EXPECT_TRUE(q.Offer({1, 0, 1.0}));
  EXPECT_FALSE(q.Offer({2, 0, 1.0}));     // full
  EXPECT_FALSE(q.Offer({99, 0, 1.0}));    // template_id >= max_templates
  EXPECT_EQ(q.accepted(), 2u);
  EXPECT_EQ(q.dropped(), 2u);
  // A bad template id is a drop of its own class, not a quarantine.
  EXPECT_EQ(q.drop_stats().template_id, 1u);
  EXPECT_EQ(q.drop_stats().quarantined(), 0u);
  // Draining frees capacity.
  std::vector<TraceEvent> out;
  q.Drain(&out);
  EXPECT_TRUE(q.Offer({3, 0, 1.0}));
}

TEST(TraceBinnerTest, FoldsIntoAlignedZeroFilledTraces) {
  TraceBinner binner(kInterval);
  // Template 0 active in bins 2 and 4; template 7 only in bin 3.
  binner.Fold({0, 2 * kInterval + 1, 3.0});
  binner.Fold({0, 2 * kInterval + 500, 2.0});  // same bin, accumulates
  binner.Fold({0, 4 * kInterval, 1.0});
  binner.Fold({7, 3 * kInterval + 10, 5.0});
  EXPECT_EQ(binner.bin_count(), 3u);  // bins 2..4
  EXPECT_EQ(binner.template_count(), 2u);

  auto traces = binner.Traces();
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->size(), 2u);
  const ts::Series& t0 = (*traces)[0];
  EXPECT_EQ(t0.name(), "template0");
  EXPECT_EQ(t0.start(), 2 * kInterval);
  EXPECT_EQ(t0.interval_seconds(), kInterval);
  ASSERT_EQ(t0.size(), 3u);
  EXPECT_DOUBLE_EQ(t0[0], 5.0);
  EXPECT_DOUBLE_EQ(t0[1], 0.0);  // zero-filled gap
  EXPECT_DOUBLE_EQ(t0[2], 1.0);
  const ts::Series& t7 = (*traces)[1];
  EXPECT_EQ(t7.name(), "template7");
  EXPECT_DOUBLE_EQ(t7[1], 5.0);
}

TEST(TraceBinnerTest, BinIndexIsEpochOriginStableAcrossSaveLoad) {
  TraceBinner binner(kInterval);
  // Pinned absolute indices, including boundary and pre-epoch timestamps: a
  // boundary event opens its bin, and negative timestamps floor toward -inf.
  EXPECT_EQ(binner.BinIndex(0), 0);
  EXPECT_EQ(binner.BinIndex(kInterval - 1), 0);
  EXPECT_EQ(binner.BinIndex(kInterval), 1);
  EXPECT_EQ(binner.BinIndex(7 * kInterval), 7);
  EXPECT_EQ(binner.BinIndex(7 * kInterval - 1), 6);
  EXPECT_EQ(binner.BinIndex(-1), -1);
  EXPECT_EQ(binner.BinIndex(-kInterval), -1);
  EXPECT_EQ(binner.BinIndex(-kInterval - 1), -2);

  // The origin is the epoch, never the first folded event: binners with
  // different histories — including one restored by Save/Load — must map a
  // boundary timestamp to the same absolute bin.
  binner.Fold({0, 5 * kInterval + 10, 1.0});
  BufWriter w;
  binner.Save(&w);
  std::vector<uint8_t> blob = w.Take();
  TraceBinner restored(kInterval);
  BufReader r(blob);
  ASSERT_TRUE(restored.Load(&r).ok());
  TraceBinner fresh(kInterval);
  fresh.Fold({0, 9 * kInterval, 1.0});  // different first event
  const ts::Timestamp boundary = 7 * kInterval;
  EXPECT_EQ(binner.BinIndex(boundary), 7);
  EXPECT_EQ(restored.BinIndex(boundary), 7);
  EXPECT_EQ(fresh.BinIndex(boundary), 7);

  // And folding that boundary event lands its count in bin 7 everywhere.
  restored.Fold({0, boundary, 2.0});
  fresh.Fold({0, boundary, 2.0});
  auto rt = restored.Traces();
  auto ft = fresh.Traces();
  ASSERT_TRUE(rt.ok() && ft.ok());
  // restored covers bins 5..7 -> index 2; fresh covers 7..9 -> index 0.
  EXPECT_DOUBLE_EQ((*rt)[0].values()[2], 2.0);
  EXPECT_DOUBLE_EQ((*ft)[0].values()[0], 2.0);
  EXPECT_DOUBLE_EQ((*ft)[0].values()[2], 1.0);  // the original bin-9 event
}

TEST(TraceBinnerTest, RangeSpanningAllOfInt64IsRefusedNotWrapped) {
  // The count of bins from INT64_MIN to INT64_MAX does not fit size_t. It
  // saturates, so Traces() refuses the range instead of writing through an
  // empty buffer, and a retrain fails instead of skipping for lack of bins.
  TraceBinner binner(1);
  binner.FoldBin(0, std::numeric_limits<int64_t>::min(), 1.0);
  binner.FoldBin(0, std::numeric_limits<int64_t>::max(), 1.0);
  EXPECT_EQ(binner.bin_count(), std::numeric_limits<size_t>::max());
  EXPECT_EQ(binner.Traces().status().code(), StatusCode::kFailedPrecondition);
}

TEST(TraceBinnerTest, StateRoundTripAndTruncationRejection) {
  TraceBinner binner(kInterval);
  binner.Fold({1, 5 * kInterval, 4.0});
  binner.Fold({2, 9 * kInterval, 8.0});
  BufWriter w;
  binner.Save(&w);
  std::vector<uint8_t> blob = w.Take();

  TraceBinner restored(kInterval);
  BufReader r(blob);
  ASSERT_TRUE(restored.Load(&r).ok());
  EXPECT_EQ(restored.bin_count(), binner.bin_count());
  EXPECT_EQ(restored.template_count(), binner.template_count());
  auto a = binner.Traces();
  auto b = restored.Traces();
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].values(), (*b)[i].values());
  }

  // Truncation leaves the destination untouched.
  std::vector<uint8_t> cut(blob.begin(), blob.begin() + 10);
  TraceBinner untouched(kInterval);
  untouched.Fold({3, 0, 1.0});
  BufReader cr(cut);
  EXPECT_FALSE(untouched.Load(&cr).ok());
  EXPECT_EQ(untouched.template_count(), 1u);
}

TEST(TraceBinnerTest, HeaderWithNothingFoldedRefusesStoredBins) {
  // An empty binner saves "nothing folded" and no templates; that loads.
  BufWriter empty;
  TraceBinner(kInterval).Save(&empty);
  std::vector<uint8_t> empty_blob = empty.Take();
  TraceBinner fresh(kInterval);
  BufReader er(empty_blob);
  ASSERT_TRUE(fresh.Load(&er).ok());
  EXPECT_EQ(fresh.bin_count(), 0u);

  // The same header with a stored bin: the next Fold would start the range
  // at its own bin, and Traces() would write bin -1000000 outside it.
  BufWriter w;
  w.I64(kInterval);
  w.U8(0);  // nothing folded
  w.I64(0);
  w.I64(0);
  w.U64(1);  // one template
  w.U32(7);
  w.U64(1);  // one bin
  w.I64(-1000000);
  w.F64(1.0);
  std::vector<uint8_t> blob = w.Take();
  TraceBinner binner(kInterval);
  binner.Fold({3, 5 * kInterval, 2.0});
  BufReader r(blob);
  EXPECT_EQ(binner.Load(&r).code(), StatusCode::kInvalidArgument);

  // Refused whole: the binner keeps its own state and still materializes.
  EXPECT_EQ(binner.template_count(), 1u);
  EXPECT_EQ(binner.bin_count(), 1u);
  for (int i = 0; i < 4; ++i) binner.Fold({3, (6 + i) * kInterval, 1.0});
  auto traces = binner.Traces();
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->size(), 1u);
  EXPECT_EQ((*traces)[0].values(),
            (std::vector<double>{2.0, 1.0, 1.0, 1.0, 1.0}));
}

using BinMap = std::map<uint32_t, std::map<int64_t, double>>;

// A TraceBinner with the map-of-maps store and Save format it documents:
// each (template, bin) sums its counts in arrival order onto a
// value-initialized 0.0.
struct ReferenceBinner {
  BinMap bins;
  bool any = false;
  int64_t min_bin = 0;
  int64_t max_bin = 0;

  void FoldBin(uint32_t template_id, int64_t bin, double count) {
    bins[template_id][bin] += count;
    min_bin = any ? std::min(min_bin, bin) : bin;
    max_bin = any ? std::max(max_bin, bin) : bin;
    any = true;
  }

  std::vector<uint8_t> Save(int64_t interval) const {
    BufWriter w;
    w.I64(interval);
    w.U8(any ? 1 : 0);
    w.I64(min_bin);
    w.I64(max_bin);
    w.U64(bins.size());
    for (const auto& [tid, per_bin] : bins) {
      w.U32(tid);
      w.U64(per_bin.size());
      for (const auto& [bin, count] : per_bin) {
        w.I64(bin);
        w.F64(count);
      }
    }
    return w.Take();
  }
};

std::vector<uint8_t> SavedBytes(const TraceBinner& binner) {
  BufWriter w;
  binner.Save(&w);
  return w.Take();
}

void ExpectMatchesReference(const TraceBinner& binner,
                            const ReferenceBinner& ref) {
  EXPECT_EQ(binner.template_count(), ref.bins.size());
  EXPECT_EQ(binner.bin_count(), trace::BinSpan(ref.min_bin, ref.max_bin));
  EXPECT_EQ(binner.bins(), ref.bins);
  EXPECT_EQ(SavedBytes(binner), ref.Save(kInterval));
  auto traces = binner.Traces();
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->size(), ref.bins.size());
  const size_t len = trace::BinSpan(ref.min_bin, ref.max_bin);
  size_t i = 0;
  for (const auto& [tid, per_bin] : ref.bins) {
    const ts::Series& t = (*traces)[i++];
    EXPECT_EQ(t.name(), "template" + std::to_string(tid));
    EXPECT_EQ(t.start(), ref.min_bin * kInterval);
    EXPECT_EQ(t.interval_seconds(), kInterval);
    std::vector<double> want(len, 0.0);
    for (const auto& [bin, count] : per_bin) {
      want[static_cast<size_t>(bin - ref.min_bin)] = count;
    }
    ASSERT_EQ(t.size(), len);
    EXPECT_EQ(std::memcmp(t.values().data(), want.data(),
                          len * sizeof(double)),
              0)
        << t.name();
  }
}

TEST(TraceBinnerTest, MatchesAMapReference) {
  TraceBinner binner(kInterval);
  ReferenceBinner ref;
  Rng rng(29);
  auto fold = [&](uint32_t tid, int64_t bin, double count) {
    const ts::Timestamp at =
        bin * kInterval + rng.UniformInt(0, kInterval - 1);
    binner.Fold({tid, at, count});
    ref.FoldBin(tid, bin, count);
  };
  // New templates arrive in descending id order, one more every few bins;
  // most events land in the current bin (repeats included), some 1-3 bins
  // late, and a few carry -0.0 or 1e300.
  std::vector<uint32_t> live;
  for (int64_t bin = -4; bin < 40; ++bin) {
    if (bin % 3 == 0 || live.empty()) {
      live.push_back(900 - 7 * static_cast<uint32_t>(live.size()));
    }
    for (int e = 0; e < 30; ++e) {
      const uint32_t tid = live[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      int64_t at = bin;
      if (rng.Bernoulli(0.2)) at -= rng.UniformInt(1, 3);
      double count = static_cast<double>(rng.UniformInt(1, 5));
      if (rng.Bernoulli(0.05)) count = -0.0;
      if (rng.Bernoulli(0.02)) count = 1e300;
      fold(tid, at, count);
    }
  }
  // A template whose only count is -0.0 saves +0.0, as the map's sum did.
  fold(5, 10, -0.0);
  ExpectMatchesReference(binner, ref);

  // FoldBin in shard-count migration order: each old shard's templates in
  // id order with their bins ascending, the shards one after the other, so
  // ids interleave.
  TraceBinner migrated(kInterval);
  ReferenceBinner migrated_ref;
  for (uint32_t parity : {1u, 0u}) {
    for (const auto& [tid, per_bin] : ref.bins) {
      if (tid % 2 != parity) continue;
      for (const auto& [bin, count] : per_bin) {
        migrated.FoldBin(tid, bin, count);
        migrated_ref.FoldBin(tid, bin, count);
      }
    }
  }
  ExpectMatchesReference(migrated, migrated_ref);
  EXPECT_EQ(SavedBytes(migrated), SavedBytes(binner));
}

// A Save-format blob over bins [0, 10] with the given (template, bins)
// records.
std::vector<uint8_t> BinnerBlob(
    const std::vector<std::pair<uint32_t, std::vector<int64_t>>>& records) {
  BufWriter w;
  w.I64(kInterval);
  w.U8(1);
  w.I64(0);
  w.I64(10);
  w.U64(records.size());
  for (const auto& [tid, bins] : records) {
    w.U32(tid);
    w.U64(bins.size());
    for (int64_t bin : bins) {
      w.I64(bin);
      w.F64(1.0);
    }
  }
  return w.Take();
}

TEST(TraceBinnerTest, LoadRejectsUnorderedTemplatesAndBins) {
  TraceBinner binner(kInterval);
  binner.Fold({3, 5 * kInterval, 2.0});
  const std::vector<uint8_t> before = SavedBytes(binner);

  const std::vector<uint8_t> ordered = BinnerBlob({{7, {2, 5}}, {9, {1}}});
  TraceBinner fresh(kInterval);
  BufReader ok(ordered);
  ASSERT_TRUE(fresh.Load(&ok).ok());
  EXPECT_EQ(SavedBytes(fresh), ordered);

  const std::vector<std::vector<uint8_t>> bad = {
      BinnerBlob({{7, {5, 2}}}),            // descending bin
      BinnerBlob({{7, {5, 5}}}),            // repeated bin
      BinnerBlob({{9, {1}}, {7, {2, 5}}}),  // descending template id
      BinnerBlob({{7, {2}}, {7, {5}}}),     // repeated template id
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    BufReader r(bad[i]);
    EXPECT_EQ(binner.Load(&r).code(), StatusCode::kInvalidArgument) << i;
    EXPECT_EQ(SavedBytes(binner), before) << i;
  }

  // A count past the bytes left is refused before anything is reserved.
  BufWriter huge;
  huge.I64(kInterval);
  huge.U8(1);
  huge.I64(0);
  huge.I64(10);
  huge.U64(1);
  huge.U32(7);
  huge.U64(uint64_t{1} << 60);
  huge.I64(0);
  huge.F64(1.0);
  const std::vector<uint8_t> huge_blob = huge.Take();
  BufReader hr(huge_blob);
  EXPECT_EQ(binner.Load(&hr).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SavedBytes(binner), before);
}

TEST(TraceBinnerTest, HeapPerEntry) {
#if !defined(DBAUGUR_TEST_HEAP_IN_USE)
  GTEST_SKIP() << "needs glibc mallinfo2 and the system allocator";
#else
  // 2000 templates x 100 bins, folded bin by bin as a stream arrives. Each
  // entry holds 16 bytes of data; the map of maps spent ~65 B on it.
  constexpr uint32_t kTemplates = 2000;
  constexpr int64_t kBins = 100;
  const int64_t before = HeapInUse();
  TraceBinner binner(kInterval);
  for (int64_t bin = 0; bin < kBins; ++bin) {
    for (uint32_t t = 0; t < kTemplates; ++t) binner.FoldBin(t, bin, 1.0);
  }
  const double per_entry = static_cast<double>(HeapInUse() - before) /
                           static_cast<double>(kTemplates * kBins);
  EXPECT_LE(per_entry, 32.0);
  RecordProperty("heap_bytes_per_entry", std::to_string(per_entry));
#endif
}

TEST(ForecastServiceTest, EmptySnapshotBeforeTraining) {
  ShardedForecastService svc(OneShard(FastOptions()));
  auto snap = svc.snapshot(0);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->generation, 0u);
  EXPECT_FALSE(snap->trained());
  EXPECT_EQ(snap->ForecastCluster(0).status().code(),
            StatusCode::kFailedPrecondition);
  // Not enough data: the cycle is a skip, not an error.
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  EXPECT_EQ(svc.shard(0).generation(), 0u);
  EXPECT_EQ(svc.stats().retrains_skipped, 1u);
}

TEST(ForecastServiceTest, PublishesGenerationsAndKeepsOldSnapshotsFrozen) {
  ShardedForecastService svc(OneShard(FastOptions()));
  OfferBins(&svc, 3, 0, 16);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  EXPECT_EQ(svc.shard(0).generation(), 1u);
  auto gen1 = svc.snapshot(0);
  ASSERT_TRUE(gen1->trained());
  EXPECT_EQ(gen1->trace_names.size(), 3u);
  auto f1 = gen1->ForecastCluster(0);
  ASSERT_TRUE(f1.ok());
  EXPECT_TRUE(std::isfinite(*f1));

  // New data, new generation; a reader still holding gen1 sees it unchanged.
  OfferBins(&svc, 3, 16, 8);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  EXPECT_EQ(svc.shard(0).generation(), 2u);
  auto gen2 = svc.snapshot(0);
  EXPECT_EQ(gen2->generation, 2u);
  EXPECT_EQ(gen1->generation, 1u);
  auto f1_again = gen1->ForecastCluster(0);
  ASSERT_TRUE(f1_again.ok());
  EXPECT_EQ(*f1_again, *f1);

  // Trace-level forecasts scale the cluster forecast; every trace resolves.
  for (size_t i = 0; i < gen2->trace_names.size(); ++i) {
    auto ft = gen2->ForecastTrace(i);
    if (ft.ok()) {
      EXPECT_TRUE(std::isfinite(*ft));
    }
  }
  ServeStats st = svc.stats();
  EXPECT_EQ(st.retrains_completed, 2u);
  EXPECT_EQ(st.events_dropped, 0u);
}

TEST(ForecastServiceTest, SaveLoadRoundTripServesIdenticalForecasts) {
  ShardedForecastService svc(OneShard(FastOptions()));
  OfferBins(&svc, 3, 0, 16);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  const std::string base = ::testing::TempDir() + "dbaugur_serve_roundtrip";
  ASSERT_TRUE(svc.SaveToFiles(base).ok());

  ShardedForecastService restored(OneShard(FastOptions()));
  ASSERT_TRUE(restored.LoadFromFiles(base).ok());
  EXPECT_EQ(restored.shard(0).generation(), svc.shard(0).generation());
  auto a = svc.snapshot(0);
  auto b = restored.snapshot(0);
  ASSERT_EQ(a->cluster_count(), b->cluster_count());
  for (size_t rank = 0; rank < a->cluster_count(); ++rank) {
    auto fa = a->ForecastCluster(rank);
    auto fb = b->ForecastCluster(rank);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_EQ(*fa, *fb);  // bit-identical, not merely close
  }
  ASSERT_EQ(a->trace_names.size(), b->trace_names.size());
  for (size_t i = 0; i < a->trace_names.size(); ++i) {
    auto fa = a->ForecastTrace(i);
    auto fb = b->ForecastTrace(i);
    ASSERT_EQ(fa.ok(), fb.ok());
    if (fa.ok()) {
      EXPECT_EQ(*fa, *fb);
    }
  }

  // The retrain seed stream resumed where it left off: retraining both
  // services on the same (persisted) history yields identical forecasts.
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  ASSERT_TRUE(restored.shard(0).RetrainOnce().ok());
  EXPECT_EQ(svc.shard(0).generation(), restored.shard(0).generation());
  auto a2 = svc.snapshot(0);
  auto b2 = restored.snapshot(0);
  ASSERT_EQ(a2->cluster_count(), b2->cluster_count());
  for (size_t rank = 0; rank < a2->cluster_count(); ++rank) {
    auto fa = a2->ForecastCluster(rank);
    auto fb = b2->ForecastCluster(rank);
    ASSERT_TRUE(fa.ok() && fb.ok());
    EXPECT_EQ(*fa, *fb);
  }
}

TEST(ForecastServiceTest, LoadRejectsCorruptBlobsAndKeepsServing) {
  ShardedForecastService svc(OneShard(FastOptions()));
  OfferBins(&svc, 2, 0, 12);
  ASSERT_TRUE(svc.shard(0).RetrainOnce().ok());
  const std::string base = ::testing::TempDir() + "dbaugur_serve_corrupt";
  ASSERT_TRUE(svc.SaveToFiles(base).ok());
  const std::string shard_path = ShardedForecastService::ShardPath(base, 0);
  auto framed = ::dbaugur::LoadFromFile(shard_path);
  ASSERT_TRUE(framed.ok());
  const std::vector<uint8_t> blob = framed->blob;
  auto before = svc.snapshot(0);
  auto f_before = before->ForecastCluster(0);
  ASSERT_TRUE(f_before.ok());

  // Every corrupt payload is re-framed with a valid CRC and no `.bak` to fall
  // back on, so the frame check passes and validation has to reject it.
  auto load = [&](const std::vector<uint8_t>& payload) {
    EXPECT_TRUE(::dbaugur::SaveToFile(shard_path, payload).ok());
    std::remove((shard_path + ".bak").c_str());
    return svc.LoadFromFiles(base);
  };
  // Bad magic.
  std::vector<uint8_t> bad = blob;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(load(bad).ok());
  // Truncated.
  std::vector<uint8_t> cut(blob.begin(),
                           blob.begin() + static_cast<long>(blob.size() / 2));
  EXPECT_FALSE(load(cut).ok());
  // Nudge the stored cluster-0 forecast by one ulp: the restored ensemble
  // then no longer reproduces it and the bit-identity check must reject.
  std::vector<uint8_t> flipped = blob;
  uint8_t pattern[8];
  std::memcpy(pattern, &*f_before, sizeof(pattern));
  auto it = std::search(flipped.begin(), flipped.end(), std::begin(pattern),
                        std::end(pattern));
  ASSERT_NE(it, flipped.end());
  *it ^= 0x01;
  EXPECT_FALSE(load(flipped).ok());

  // The service never stopped serving its original snapshot.
  EXPECT_EQ(svc.shard(0).generation(), 1u);
  auto f_after = svc.snapshot(0)->ForecastCluster(0);
  ASSERT_TRUE(f_after.ok());
  EXPECT_EQ(*f_after, *f_before);

  // The pristine payload still loads.
  EXPECT_TRUE(load(blob).ok());
}

TEST(ForecastServiceTest, ConcurrentProducersReadersAndRetrainerSmoke) {
  ServeOptions opts = FastOptions();
  opts.pipeline.forecaster.window = 4;
  opts.pipeline.forecaster.epochs = 1;
  ShardedForecastService svc(OneShard(opts));
  // Seed enough history that the first background cycle can train.
  OfferBins(&svc, 2, 0, 10);
  svc.Start();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  // Small thread counts: this must stay fast under TSan on a 1-core CI box.
  std::thread producers[2];
  for (int p = 0; p < 2; ++p) {
    producers[p] = std::thread([&svc, &stop, p] {
      int64_t bin = 10;
      while (!stop.load(std::memory_order_relaxed)) {
        for (uint32_t t = 0; t < 2; ++t) {
          svc.Offer({t, bin * kInterval + p, 1.0});
        }
        ++bin;
        std::this_thread::yield();
      }
    });
  }
  std::thread readers[2];
  for (int q = 0; q < 2; ++q) {
    readers[q] = std::thread([&svc, &stop, &reads] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto snap = svc.snapshot(0);
        if (snap->trained()) {
          auto f = snap->ForecastCluster(0);
          if (f.ok()) reads.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
    });
  }

  // Wait until at least one retrain published while the others keep running.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (svc.shard(0).generation() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : producers) t.join();
  for (auto& t : readers) t.join();
  svc.Stop();

  EXPECT_GE(svc.shard(0).generation(), 1u);
  ServeStats st = svc.stats();
  EXPECT_GE(st.retrains_completed, 1u);
  EXPECT_GT(st.events_accepted, 0u);
  // Start/Stop are idempotent.
  svc.Stop();
  svc.Start();
  svc.Stop();
}

// --- absolute clock-skew quarantine (pre-epoch / far-future bounds) ----------

TEST(TraceIngestorTest, QuarantinesPreEpochAndFarFutureTimestamps) {
  TraceIngestor q(IngestorOptions{16, 64});
  EXPECT_FALSE(q.Offer({0, -1, 1.0}));                     // pre-epoch
  EXPECT_FALSE(q.Offer({0, 4102444801, 1.0}));             // past 2100-01-01
  EXPECT_TRUE(q.Offer({0, 0, 1.0}));                       // epoch boundary in
  EXPECT_TRUE(q.Offer({0, 4102444800, 1.0}));              // upper boundary in
  const IngestDropStats drops = q.drop_stats();
  EXPECT_EQ(drops.pre_epoch, 1u);
  EXPECT_EQ(drops.future, 1u);
  EXPECT_EQ(drops.quarantined(), 2u);
  EXPECT_EQ(q.accepted(), 2u);
}

TEST(TraceIngestorTest, FarFutureEventCannotPoisonTheLatenessReference) {
  // Before the absolute bounds, one garbage far-future timestamp became the
  // lateness reference and stale-dropped every honest event after it.
  TraceIngestor q(IngestorOptions{16, 64});
  EXPECT_TRUE(q.Offer({0, 1000, 1.0}));
  EXPECT_FALSE(q.Offer({0, 4102444801, 1.0}));  // quarantined, not accepted
  EXPECT_TRUE(q.Offer({0, 1001, 1.0}));         // still accepted
  EXPECT_EQ(q.accepted(), 2u);
  EXPECT_EQ(q.drop_stats().future, 1u);
}

TEST(TraceIngestorTest, Int64ExtremesWithBoundsDisabledHaveNoOverflow) {
  // Disabling both bounds lets INT64 extremes reach the lateness check; the
  // overflow-aware cutoff must neither trap (UBSan) nor mis-drop.
  IngestorOptions opts{16, 64};
  opts.max_lateness_seconds = 3600;
  opts.min_timestamp_seconds = -1;  // disable both absolute bounds
  opts.max_timestamp_seconds = -1;
  TraceIngestor q(opts);
  EXPECT_TRUE(q.Offer({0, std::numeric_limits<int64_t>::min(), 1.0}));
  // cutoff = INT64_MIN - 3600 wraps; the overflow guard means "nothing is
  // stale", so a later honest event is accepted, not dropped.
  EXPECT_TRUE(q.Offer({0, 0, 1.0}));
  EXPECT_TRUE(q.Offer({0, std::numeric_limits<int64_t>::max(), 1.0}));
  // Now the reference is INT64_MAX: an ancient event is stale, and the
  // subtraction INT64_MAX - 3600 is well-defined.
  EXPECT_FALSE(q.Offer({0, 0, 1.0}));
  EXPECT_EQ(q.drop_stats().stale, 1u);
  EXPECT_EQ(q.accepted(), 3u);
}

TEST(TraceIngestorTest, BoundsAreConfigurable) {
  IngestorOptions opts{16, 64};
  opts.min_timestamp_seconds = 500;
  opts.max_timestamp_seconds = 1000;
  TraceIngestor q(opts);
  EXPECT_FALSE(q.Offer({0, 499, 1.0}));
  EXPECT_TRUE(q.Offer({0, 500, 1.0}));
  EXPECT_TRUE(q.Offer({0, 1000, 1.0}));
  EXPECT_FALSE(q.Offer({0, 1001, 1.0}));
  EXPECT_EQ(q.drop_stats().pre_epoch, 1u);
  EXPECT_EQ(q.drop_stats().future, 1u);
}

TEST(ForecastServiceTest, SkewBoundsPassThroughToIngest) {
  ServeOptions o = FastOptions();
  o.min_timestamp_seconds = 100;
  o.max_timestamp_seconds = 2000;
  ShardedForecastService svc(OneShard(o));
  EXPECT_FALSE(svc.Offer({0, 99, 1.0}));
  EXPECT_FALSE(svc.Offer({0, 2001, 1.0}));
  EXPECT_TRUE(svc.Offer({0, 150, 1.0}));
  // An out-of-range template id drops without counting as quarantined.
  EXPECT_FALSE(svc.Offer({static_cast<uint32_t>(o.max_templates), 150, 1.0}));
  const ServeStats stats = svc.stats();
  EXPECT_EQ(stats.events_accepted, 1u);
  EXPECT_EQ(stats.events_dropped, 3u);
  EXPECT_EQ(stats.drops.quarantined(), 2u);
}

}  // namespace
}  // namespace dbaugur::serve
