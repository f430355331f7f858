// Equivalence and determinism tests pinning the Descender batch fast path:
// batch AddTraces must reproduce the sequential AddTrace loop exactly
// (labels, core flags, cluster counts, TopK) across thread counts, while
// performing strictly fewer full DTW computations than the sequential path.
// A brute-force oracle — every pair decided by an all-pairs loop over the
// public bounds — pins the endpoint-grid sweep to the cascade's decisions
// and telemetry, including on non-finite, huge and cell-boundary endpoints,
// non-finite interior values and crowded grid cells.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "cluster/descender.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dtw/dtw.h"
#include "workloads/generators.h"

namespace dbaugur::cluster {
namespace {

std::vector<ts::Series> SeededWorkload(size_t families, size_t members,
                                       uint64_t seed0) {
  std::vector<ts::Series> traces;
  for (size_t fam = 0; fam < families; ++fam) {
    workloads::WarpedFamilyOptions opts;
    opts.members = members;
    opts.max_shift = 2.0;
    opts.phase = static_cast<double>(fam) * 2.0 * M_PI /
                 static_cast<double>(families);
    opts.seed = seed0 + fam;
    for (auto& s : workloads::GenerateWarpedFamily(opts)) {
      traces.push_back(std::move(s));
    }
  }
  return traces;
}

// Candidate pairs considered: the cascade decides each pair at exactly one
// of LB_Kim, LB_Keogh and the full DTW.
int64_t CandidatePairs(const Descender& d) {
  const dtw::PruningStats& st = d.pruning_stats();
  return st.kim_rejections + st.keogh_rejections + st.full_dtw;
}

DescenderOptions BaseOpts(size_t threads = 1) {
  DescenderOptions opts;
  opts.radius = 3.0;
  opts.min_size = 3;
  opts.dtw.window = 4;
  opts.threads = threads;
  return opts;
}

// Strict equality, not co-membership up to permutation: the batch path
// promises the *same* labels because adjacency lists come out identical.
void ExpectIdentical(const Descender& a, const Descender& b) {
  ASSERT_EQ(a.trace_count(), b.trace_count());
  for (size_t i = 0; i < a.trace_count(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i)) << "trace " << i;
    EXPECT_EQ(a.is_core(i), b.is_core(i)) << "trace " << i;
  }
  EXPECT_EQ(a.cluster_count(), b.cluster_count());
  EXPECT_EQ(a.density_cluster_count(), b.density_cluster_count());
  auto top_a = a.TopKClusters(5);
  auto top_b = b.TopKClusters(5);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (size_t k = 0; k < top_a.size(); ++k) {
    EXPECT_EQ(top_a[k].id, top_b[k].id) << "rank " << k;
    EXPECT_EQ(top_a[k].members, top_b[k].members) << "rank " << k;
    EXPECT_DOUBLE_EQ(top_a[k].volume, top_b[k].volume) << "rank " << k;
    EXPECT_EQ(top_a[k].singleton_outlier, top_b[k].singleton_outlier);
  }
}

TEST(ClusterBatchTest, BatchMatchesSequentialExactMode) {
  auto traces = SeededWorkload(4, 8, 500);
  Descender seq(BaseOpts());
  for (const auto& s : traces) ASSERT_TRUE(seq.AddTrace(s).ok());
  Descender batch(BaseOpts());
  ASSERT_TRUE(batch.AddTraces(traces).ok());
  ExpectIdentical(seq, batch);
}

TEST(ClusterBatchTest, ThreadCountDoesNotChangeResults) {
  auto traces = SeededWorkload(5, 8, 600);
  Descender one(BaseOpts(1));
  ASSERT_TRUE(one.AddTraces(traces).ok());
  Descender four(BaseOpts(4));
  ASSERT_TRUE(four.AddTraces(traces).ok());
  // A caller-owned pool (the retrain worker's fit pool) in place of the
  // per-call one; its width, not opts.threads, sets the lanes.
  ThreadPool pool(3);
  Descender pooled(BaseOpts(1));
  ASSERT_TRUE(pooled.AddTraces(traces, &pool).ok());
  for (const Descender* other : {&four, &pooled}) {
    ExpectIdentical(one, *other);
    // The telemetry is deterministic too: the same pairs get the same bounds
    // regardless of which lane evaluated them.
    EXPECT_EQ(one.pruning_stats().full_dtw, other->pruning_stats().full_dtw);
    EXPECT_EQ(one.pruning_stats().kim_rejections,
              other->pruning_stats().kim_rejections);
    EXPECT_EQ(one.pruning_stats().keogh_rejections,
              other->pruning_stats().keogh_rejections);
    EXPECT_EQ(CandidatePairs(one), CandidatePairs(*other));
  }
}

TEST(ClusterBatchTest, BatchDoesStrictlyFewerFullDtw) {
  auto traces = SeededWorkload(4, 10, 700);
  Descender seq(BaseOpts());
  for (const auto& s : traces) ASSERT_TRUE(seq.AddTrace(s).ok());
  Descender batch(BaseOpts());
  ASSERT_TRUE(batch.AddTraces(traces).ok());
  ExpectIdentical(seq, batch);
  // Same candidate pairs considered...
  EXPECT_EQ(CandidatePairs(batch), CandidatePairs(seq));
  // ...but the symmetric two-sided LB_Keogh must reject strictly more of
  // them before the full DTW tier.
  EXPECT_LT(batch.pruning_stats().full_dtw, seq.pruning_stats().full_dtw);
  EXPECT_GT(batch.pruning_stats().keogh_rejections,
            seq.pruning_stats().keogh_rejections);
}

TEST(ClusterBatchTest, SecondBatchOnNonEmptyDescenderMatchesSequential) {
  auto traces = SeededWorkload(4, 6, 800);
  Descender seq(BaseOpts());
  for (const auto& s : traces) ASSERT_TRUE(seq.AddTrace(s).ok());
  // Split across two batches: exercises old-vs-new cross pairs in the sweep.
  std::vector<ts::Series> first(traces.begin(), traces.begin() + 10);
  std::vector<ts::Series> second(traces.begin() + 10, traces.end());
  Descender batch(BaseOpts(2));
  ASSERT_TRUE(batch.AddTraces(first).ok());
  ASSERT_TRUE(batch.AddTraces(second).ok());
  ExpectIdentical(seq, batch);
}

TEST(ClusterBatchTest, EmptyBatchIsNoOp) {
  Descender desc(BaseOpts());
  EXPECT_TRUE(desc.AddTraces({}).ok());
  EXPECT_EQ(desc.trace_count(), 0u);
  EXPECT_TRUE(desc.AddTrace(ts::Series(0, 60, {1, 2, 3})).ok());
  EXPECT_TRUE(desc.AddTraces({}).ok());
  EXPECT_EQ(desc.trace_count(), 1u);
}

TEST(ClusterBatchTest, InvalidBatchIsAtomic) {
  Descender desc(BaseOpts());
  ASSERT_TRUE(desc.AddTrace(ts::Series(0, 60, {1, 2, 3})).ok());
  std::vector<ts::Series> mismatched;
  mismatched.push_back(ts::Series(0, 60, {4, 5, 6}));
  mismatched.push_back(ts::Series(0, 60, {7, 8}));
  EXPECT_FALSE(desc.AddTraces(std::move(mismatched)).ok());
  EXPECT_EQ(desc.trace_count(), 1u);  // nothing from the bad batch landed
  std::vector<ts::Series> with_empty;
  with_empty.push_back(ts::Series(0, 60, {4, 5, 6}));
  with_empty.push_back(ts::Series(0, 60, {}));
  EXPECT_FALSE(desc.AddTraces(std::move(with_empty)).ok());
  EXPECT_EQ(desc.trace_count(), 1u);
  // The descender still works after a rejected batch.
  EXPECT_TRUE(desc.AddTrace(ts::Series(0, 60, {4, 5, 6})).ok());
  EXPECT_EQ(desc.trace_count(), 2u);
}

// ---------------------------------------------------------------------------
// Brute-force oracle. Mirrors Descender's documented semantics with an
// all-pairs loop: every pair a new trace forms with an earlier one is
// decided through the public bounds in cascade order — LB_Kim, then LB_Keogh
// (two-sided for batch inserts, one-sided for single inserts), then DTW.
// Labels are DBSCAN over the resulting adjacency.
// ---------------------------------------------------------------------------
class BruteForceOracle {
 public:
  explicit BruteForceOracle(const DescenderOptions& opts) : opts_(opts) {}

  /// False when some pair's DTW failed; the oracle is then left unchanged,
  /// as AddTrace/AddTraces leave the Descender.
  bool AddTrace(const ts::Series& trace) {
    const BruteForceOracle before = *this;
    const size_t gi = Append(trace);
    for (size_t j = 0; j < gi; ++j) {
      if (!Decide(gi, j, /*two_sided=*/false)) return Restore(before);
    }
    Relabel();
    return true;
  }

  bool AddTraces(const std::vector<ts::Series>& batch) {
    const BruteForceOracle before = *this;
    const size_t old_n = values_.size();
    for (const ts::Series& t : batch) Append(t);
    for (size_t gi = old_n; gi < values_.size(); ++gi) {
      for (size_t j = 0; j < gi; ++j) {
        if (!Decide(gi, j, /*two_sided=*/true)) return Restore(before);
      }
    }
    Relabel();
    return true;
  }

  size_t size() const { return values_.size(); }
  int label(size_t i) const { return labels_[i]; }
  bool is_core(size_t i) const { return core_[i]; }
  const std::vector<size_t>& neighbors(size_t i) const { return adjacency_[i]; }
  const dtw::PruningStats& stats() const { return stats_; }

  std::vector<ClusterInfo> Clusters() const {
    std::vector<ClusterInfo> infos(static_cast<size_t>(clusters_));
    for (size_t c = 0; c < infos.size(); ++c) infos[c].id = static_cast<int>(c);
    for (size_t i = 0; i < labels_.size(); ++i) {
      ClusterInfo& info = infos[static_cast<size_t>(labels_[i])];
      info.members.push_back(i);
      info.volume += volumes_[i];
    }
    for (ClusterInfo& info : infos) {
      info.singleton_outlier =
          info.members.size() == 1 && !core_[info.members[0]];
    }
    std::sort(infos.begin(), infos.end(),
              [](const ClusterInfo& a, const ClusterInfo& b) {
                return a.volume > b.volume;
              });
    return infos;
  }

 private:
  bool Restore(const BruteForceOracle& before) {
    *this = before;
    return false;
  }

  size_t Append(const ts::Series& trace) {
    std::vector<double> v = trace.values();
    if (opts_.znormalize) {
      double mean = 0.0;
      for (double x : v) mean += x;
      mean /= static_cast<double>(v.size());
      double var = 0.0;
      for (double x : v) var += (x - mean) * (x - mean);
      double sd = std::sqrt(var / static_cast<double>(v.size()));
      if (sd <= 0.0) sd = 1.0;
      for (double& x : v) x = (x - mean) / sd;
    }
    envelopes_.push_back(dtw::BuildEnvelope(v, opts_.dtw.window));
    values_.push_back(std::move(v));
    double volume = 0.0;
    for (double x : trace.values()) volume += x;
    volumes_.push_back(volume);
    adjacency_.emplace_back();
    return values_.size() - 1;
  }

  bool Decide(size_t gi, size_t j, bool two_sided) {
    const std::vector<double>& q = values_[gi];
    const std::vector<double>& c = values_[j];
    if (opts_.radius != dtw::kNoBound) {
      if (dtw::LbKim(q, c) > opts_.radius) {
        ++stats_.kim_rejections;
        return true;
      }
      const double lb =
          two_sided ? dtw::LbKeoghSymmetric(q, envelopes_[gi], c, envelopes_[j])
                    : dtw::LbKeogh(q, envelopes_[j]);
      if (lb > opts_.radius) {
        ++stats_.keogh_rejections;
        return true;
      }
    }
    ++stats_.full_dtw;
    auto d = dtw::DtwDistance(q, c, opts_.dtw, opts_.radius);
    if (!d.ok()) return false;
    if (*d <= opts_.radius) Link(gi, j);
    return true;
  }

  // Pairs are decided in ascending (gi, j) order, so every list stays sorted.
  void Link(size_t gi, size_t j) {
    adjacency_[gi].push_back(j);
    adjacency_[j].push_back(gi);
  }

  void Relabel() {
    const size_t n = values_.size();
    core_.assign(n, false);
    for (size_t i = 0; i < n; ++i) {
      core_[i] = adjacency_[i].size() + 1 >= opts_.min_size;
    }
    labels_.assign(n, -1);
    clusters_ = 0;
    for (size_t seed = 0; seed < n; ++seed) {
      if (!core_[seed] || labels_[seed] != -1) continue;
      const int cid = clusters_++;
      std::deque<size_t> frontier{seed};
      labels_[seed] = cid;
      while (!frontier.empty()) {
        const size_t cur = frontier.front();
        frontier.pop_front();
        for (size_t nb : adjacency_[cur]) {
          if (labels_[nb] != -1) continue;
          labels_[nb] = cid;
          if (core_[nb]) frontier.push_back(nb);
        }
      }
    }
    for (int& l : labels_) {
      if (l == -1) l = clusters_++;
    }
  }

  DescenderOptions opts_;
  std::vector<std::vector<double>> values_;
  std::vector<dtw::Envelope> envelopes_;
  std::vector<double> volumes_;
  std::vector<std::vector<size_t>> adjacency_;
  std::vector<bool> core_;
  std::vector<int> labels_;
  int clusters_ = 0;
  dtw::PruningStats stats_;
};

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectMatchesOracle(const Descender& desc,
                         const BruteForceOracle& oracle) {
  ASSERT_EQ(desc.trace_count(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(desc.label(i), oracle.label(i)) << "trace " << i;
    EXPECT_EQ(desc.is_core(i), oracle.is_core(i)) << "trace " << i;
    EXPECT_EQ(desc.neighbors(i), oracle.neighbors(i)) << "trace " << i;
  }
  const std::vector<ClusterInfo> want = oracle.Clusters();
  const std::vector<ClusterInfo> got = desc.TopKClusters(want.size() + 1);
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(got[r].id, want[r].id) << "rank " << r;
    EXPECT_EQ(got[r].members, want[r].members) << "rank " << r;
    EXPECT_EQ(Bits(got[r].volume), Bits(want[r].volume)) << "rank " << r;
    EXPECT_EQ(got[r].singleton_outlier, want[r].singleton_outlier)
        << "rank " << r;
  }
  const dtw::PruningStats& a = desc.pruning_stats();
  const dtw::PruningStats& b = oracle.stats();
  EXPECT_EQ(a.kim_rejections, b.kim_rejections);
  EXPECT_EQ(a.keogh_rejections, b.keogh_rejections);
  EXPECT_EQ(a.full_dtw, b.full_dtw);
}

// One Descender and its oracle fed the same inserts.
class OracleCheck {
 public:
  explicit OracleCheck(const DescenderOptions& opts)
      : desc_(opts), oracle_(opts) {}

  /// Inserts the batch into both; returns whether it was accepted.
  bool AddTraces(const std::vector<ts::Series>& batch,
                 ThreadPool* pool = nullptr) {
    const size_t before = desc_.trace_count();
    const bool ok = oracle_.AddTraces(batch);
    const Status st = desc_.AddTraces(batch, pool);
    EXPECT_EQ(st.ok(), ok) << st.ToString();
    if (!st.ok()) {
      EXPECT_EQ(desc_.trace_count(), before);
    }
    ExpectMatchesOracle(desc_, oracle_);
    return ok;
  }

  void AddTrace(const ts::Series& trace) {
    const bool ok = oracle_.AddTrace(trace);
    EXPECT_EQ(desc_.AddTrace(trace).ok(), ok);
    ExpectMatchesOracle(desc_, oracle_);
  }

  const Descender& descender() const { return desc_; }

 private:
  Descender desc_;
  BruteForceOracle oracle_;
};

// Noisy warped families (many pairs in range) mixed with random walks (few).
std::vector<ts::Series> MixedTraces(size_t families, size_t members,
                                    size_t walks, size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<ts::Series> out;
  for (size_t f = 0; f < families; ++f) {
    const double phase = rng.Uniform(0.0, 2.0 * M_PI);
    const double period = rng.Uniform(4.0, 12.0);
    for (size_t m = 0; m < members; ++m) {
      const double shift = rng.Uniform(-1.5, 1.5);
      const double scale = rng.Uniform(0.5, 3.0);
      std::vector<double> v(len);
      for (size_t k = 0; k < len; ++k) {
        const double x = (static_cast<double>(k) + shift) / period;
        v[k] = 10.0 + scale * std::sin(2.0 * M_PI * x + phase) +
               rng.Gaussian(0.0, 0.15);
      }
      out.emplace_back(0, 60, std::move(v));
    }
  }
  for (size_t w = 0; w < walks; ++w) {
    std::vector<double> v(len);
    double x = 0.0;
    for (double& y : v) y = x += rng.Gaussian();
    out.emplace_back(0, 60, std::move(v));
  }
  // Interleave so batches and grid cells mix families and walks.
  std::vector<ts::Series> shuffled;
  while (!out.empty()) {
    const auto pick = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(out.size()) - 1));
    shuffled.push_back(std::move(out[pick]));
    out.erase(out.begin() + static_cast<ptrdiff_t>(pick));
  }
  return shuffled;
}

DescenderOptions OracleOpts(double radius, int window, size_t threads = 1) {
  DescenderOptions opts;
  opts.radius = radius;
  opts.min_size = 3;
  opts.dtw.window = window;
  opts.threads = threads;
  return opts;
}

TEST(ClusterBatchOracleTest, RandomSeedsAtOneAndFourThreads) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto traces = MixedTraces(5, 12, 20, 16, seed);
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      OracleCheck check(OracleOpts(1.5, 3, threads));
      ASSERT_TRUE(check.AddTraces(traces));
      // The grid skipped most pairs, and the cascade still decided some.
      const dtw::PruningStats& st = check.descender().pruning_stats();
      EXPECT_GT(st.kim_rejections, st.keogh_rejections + st.full_dtw);
      EXPECT_GT(st.full_dtw, 0);
      EXPECT_LT(check.descender().cluster_count(), traces.size());
    }
  }
}

TEST(ClusterBatchOracleTest, CallerPoolMatchesOracle) {
  ThreadPool pool(3);
  OracleCheck check(OracleOpts(1.5, 3));
  auto traces = MixedTraces(4, 10, 10, 12, 14);
  ASSERT_TRUE(check.AddTraces(traces, &pool));
}

TEST(ClusterBatchOracleTest, ZeroAndHugeAndInfiniteRadius) {
  auto traces = MixedTraces(3, 8, 8, 10, 15);
  // Exact duplicates give pairs at distance 0.
  for (size_t i = 0; i < 5; ++i) traces.push_back(traces[i]);
  // ρ = 0, ρ below the grid's smallest radius, ρ above every distance, ρ = ∞.
  for (double radius : {0.0, 1e-200, 1e9, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE("radius " + std::to_string(radius));
    OracleCheck check(OracleOpts(radius, 2, 2));
    ASSERT_TRUE(check.AddTraces(traces));
  }
}

TEST(ClusterBatchOracleTest, DtwWindows) {
  auto traces = MixedTraces(4, 8, 8, 14, 16);
  for (int window : {0, 1, -1}) {
    SCOPED_TRACE("window " + std::to_string(window));
    OracleCheck check(OracleOpts(1.5, window, 2));
    ASSERT_TRUE(check.AddTraces(traces));
  }
}

TEST(ClusterBatchOracleTest, TraceLengthsOneAndTwo) {
  Rng rng(17);
  for (size_t len : {1u, 2u}) {
    for (bool znormalize : {true, false}) {
      SCOPED_TRACE("len " + std::to_string(len) + (znormalize ? " z" : " raw"));
      std::vector<ts::Series> traces;
      for (size_t i = 0; i < 40; ++i) {
        std::vector<double> v(len);
        for (double& x : v) x = std::round(rng.Uniform(-3.0, 3.0) * 4.0) / 4.0;
        traces.emplace_back(0, 60, std::move(v));
      }
      DescenderOptions opts = OracleOpts(0.5, 1, 2);
      opts.znormalize = znormalize;
      OracleCheck check(opts);
      ASSERT_TRUE(check.AddTraces(traces));
    }
  }
}

TEST(ClusterBatchOracleTest, HugeValuesWithoutNormalization) {
  // Endpoints near ±1e300 are too far out for an exact cell index, so those
  // rows take the scan-all path; the moderate rows still use the grid.
  Rng rng(18);
  std::vector<ts::Series> traces = MixedTraces(2, 6, 4, 8, 19);
  for (size_t i = 0; i < 12; ++i) {
    std::vector<double> v(8);
    const double sign = i % 2 == 0 ? 1.0 : -1.0;
    for (double& x : v) x = sign * 1e300 * rng.Uniform(0.5, 1.7);
    if (i % 3 == 0) v.back() = rng.Uniform(-1.0, 1.0);  // one huge, one small end
    traces.emplace_back(0, 60, std::move(v));
  }
  // A pair of equal huge traces is within any radius.
  traces.push_back(traces.back());
  for (double radius : {1.0, 1e299}) {
    DescenderOptions opts = OracleOpts(radius, 2, 2);
    opts.znormalize = false;
    OracleCheck check(opts);
    ASSERT_TRUE(check.AddTraces(traces));
  }
}

TEST(ClusterBatchOracleTest, NonFiniteEndpoints) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  DescenderOptions opts = OracleOpts(1.0, 1, 2);
  opts.znormalize = false;
  {
    // ±inf at either end: every pair with such a trace has an infinite
    // endpoint gap, so LB_Kim rejects it whichever path reaches it.
    std::vector<ts::Series> traces = MixedTraces(2, 6, 4, 8, 20);
    for (auto [first, last] : {std::pair{kInf, 0.0}, std::pair{-kInf, 0.0},
                               std::pair{0.0, kInf}, std::pair{0.0, -kInf}}) {
      std::vector<double> v(8, 0.25);
      v.front() = first;
      v.back() = last;
      traces.emplace_back(0, 60, std::move(v));
    }
    OracleCheck check(opts);
    ASSERT_TRUE(check.AddTraces(traces));
    EXPECT_EQ(check.descender().pruning_stats().full_dtw +
                  check.descender().pruning_stats().keogh_rejections +
                  check.descender().pruning_stats().kim_rejections,
              static_cast<int64_t>(traces.size() * (traces.size() - 1) / 2));
  }
  {
    // One-value traces: NaN and ±inf pass through DTW to a NaN or infinite
    // distance without failing it.
    std::vector<ts::Series> traces;
    for (double x : {0.0, 0.5, kNaN, 1.0, kInf, -kInf, kNaN, 0.75}) {
      traces.emplace_back(0, 60, std::vector<double>{x});
    }
    OracleCheck check(opts);
    ASSERT_TRUE(check.AddTraces(traces));
  }
  {
    // NaN endpoints on longer traces: LB_Kim is NaN, so those pairs reach
    // LB_Keogh and possibly DTW, which may fail the batch. Either way the
    // batch path must agree with the oracle, atomically.
    std::vector<ts::Series> traces = MixedTraces(2, 6, 4, 8, 21);
    std::vector<double> v(8, 0.1);
    v.front() = kNaN;
    traces.emplace_back(0, 60, v);
    v.front() = 0.1;
    v.back() = kNaN;
    traces.emplace_back(0, 60, v);
    OracleCheck check(opts);
    check.AddTraces(traces);
    // The Descender stays usable whatever the outcome.
    check.AddTraces(MixedTraces(1, 4, 2, 8, 22));
  }
}

// Runs `body(opts, pool)` at 1 lane, at 4 lanes and on a caller pool of 3.
template <typename Body>
void AtEveryLaneCount(DescenderOptions opts, Body body) {
  for (size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    opts.threads = threads;
    body(opts, nullptr);
  }
  SCOPED_TRACE("caller pool");
  ThreadPool pool(3);
  opts.threads = 1;
  body(opts, &pool);
}

TEST(ClusterBatchOracleTest, InteriorNonFiniteValues) {
  // Finite endpoints keep these rows on the endpoint grid, so the sweep's
  // LB_Keogh sums, not the scan-all path, meet the non-finite values.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  DescenderOptions opts = OracleOpts(1.0, 2);
  opts.znormalize = false;
  // Copies of the first few traces, each with one interior bin replaced.
  auto with_values = [](std::vector<ts::Series> traces,
                        const std::vector<std::pair<size_t, double>>& bins) {
    for (size_t i = 0; i < bins.size(); ++i) {
      std::vector<double> v = traces[i].values();
      v[bins[i].first] = bins[i].second;
      traces.emplace_back(0, 60, std::move(v));
    }
    return traces;
  };
  AtEveryLaneCount(opts, [&](const DescenderOptions& o, ThreadPool* pool) {
    {
      // ±inf bins more than the window apart per sign: every pair with such
      // a row has a +inf LB_Keogh sum, in the first direction when that row
      // is the query and in the second when it is the earlier row.
      OracleCheck check(o);
      ASSERT_TRUE(check.AddTraces(
          with_values(MixedTraces(2, 6, 6, 8, 27),
                      {{1, kInf}, {2, -kInf}, {4, kInf}, {5, -kInf}}),
          pool));
      EXPECT_GT(check.descender().pruning_stats().keogh_rejections, 0);
    }
    {
      // NaN values add nothing to an LB_Keogh sum, so their pairs reach DTW,
      // whose NaN distance links nothing.
      OracleCheck check(o);
      ASSERT_TRUE(check.AddTraces(
          with_values(MixedTraces(2, 6, 6, 8, 28),
                      {{3, kNaN}, {1, kNaN}, {6, kNaN}, {2, kNaN}}),
          pool));
    }
    {
      // A twin with NaN in its second-to-last bin, placed before its
      // source: every band path of DTW(source, twin) crosses the NaN column.
      // The scalar DP ends at +inf there and fails the batch; the vector
      // wavefronts carry the NaN through. Either way the batch path must
      // agree with the oracle, atomically.
      std::vector<ts::Series> traces = MixedTraces(2, 6, 6, 8, 29);
      std::vector<double> v = traces[0].values();
      v[6] = kNaN;
      traces.insert(traces.begin(), ts::Series(0, 60, std::move(v)));
      OracleCheck check(o);
      check.AddTraces(traces, pool);
      // The Descender stays usable whatever the outcome.
      check.AddTraces(MixedTraces(1, 4, 2, 8, 30), pool);
    }
  });
}

TEST(ClusterBatchOracleTest, CrowdedCells) {
  // Three hundred raw traces over seven endpoint pairs, five of them in one
  // grid cell or its neighbour: cells hold dozens of rows, each query's rows
  // below it end mid-cell, and LB_Kim both keeps and rejects pairs within
  // a cell. Interiors vary enough that LB_Keogh and DTW decide some pairs.
  Rng rng(31);
  const double kEnds[][2] = {{0.0, 0.0}, {0.0, 0.5}, {0.5, 0.0}, {0.9, 0.9},
                             {1.2, 0.3}, {2.0, 2.0}, {2.0, 2.4}};
  std::vector<ts::Series> traces;
  for (size_t i = 0; i < 300; ++i) {
    const auto e = static_cast<size_t>(rng.UniformInt(0, 6));
    std::vector<double> v(10);
    const double level = rng.Uniform(-0.6, 0.6);
    for (double& x : v) x = kEnds[e][0] + level + rng.Gaussian(0.0, 0.2);
    v.front() = kEnds[e][0];
    v.back() = kEnds[e][1];
    traces.emplace_back(0, 60, std::move(v));
  }
  DescenderOptions opts = OracleOpts(1.0, 2);
  opts.znormalize = false;
  AtEveryLaneCount(opts, [&](const DescenderOptions& o, ThreadPool* pool) {
    OracleCheck check(o);
    // Two batches: the second sweeps its rows against the first's too.
    ASSERT_TRUE(check.AddTraces({traces.begin(), traces.begin() + 120}, pool));
    ASSERT_TRUE(check.AddTraces({traces.begin() + 120, traces.end()}, pool));
    const dtw::PruningStats& st = check.descender().pruning_stats();
    EXPECT_GT(st.kim_rejections, 0);
    EXPECT_GT(st.keogh_rejections, 0);
    EXPECT_GT(st.full_dtw, 0);
  });
}

TEST(ClusterBatchOracleTest, KeoghSumJustAboveRadiusSquared) {
  // Raw traces that are 0 except for a bump of 1 and one of 2^-26: against
  // a zero trace their LB_Keogh sum is exactly 1 + 2^-52. That is above
  // ρ² = 1, yet its square root rounds to 1 = ρ, so the LB_Keogh tier keeps
  // the pair and DTW decides it. A sweep or cascade that compared sums
  // with ρ² would count a Keogh rejection instead.
  DescenderOptions opts = OracleOpts(1.0, 1, 2);
  opts.znormalize = false;
  opts.min_size = 2;
  std::vector<ts::Series> traces;
  traces.emplace_back(0, 60, std::vector<double>(10, 0.0));
  for (size_t k = 1; k + 3 < 10; ++k) {
    std::vector<double> v(10, 0.0);
    v[k] = 1.0;
    v[k + 2] = 0x1p-26;
    traces.emplace_back(0, 60, std::move(v));
  }
  traces.emplace_back(0, 60, std::vector<double>(10, 0.0));
  OracleCheck batch(opts);
  ASSERT_TRUE(batch.AddTraces(traces));
  EXPECT_GT(batch.descender().pruning_stats().full_dtw, 0);
  OracleCheck single(opts);
  for (const ts::Series& t : traces) single.AddTrace(t);
}

TEST(ClusterBatchOracleTest, EndpointsOnCellBoundaries) {
  // Raw endpoints at exact multiples k·ρ (and, for ρ = 0.1, at their
  // rounded neighbours), so gaps of exactly ρ and cell-edge keys abound.
  Rng rng(23);
  for (double radius : {0.5, 0.1, 1.0 / 3.0}) {
    SCOPED_TRACE("radius " + std::to_string(radius));
    std::vector<ts::Series> traces;
    for (size_t i = 0; i < 60; ++i) {
      std::vector<double> v(6);
      for (double& x : v) x = rng.Uniform(-0.2, 0.2);
      v.front() = static_cast<double>(rng.UniformInt(-4, 4)) * radius;
      v.back() = static_cast<double>(rng.UniformInt(-4, 4)) * radius;
      if (i % 5 == 0) v.front() = std::nextafter(v.front(), 1.0);
      if (i % 7 == 0) v.back() = std::nextafter(v.back(), -1.0);
      traces.emplace_back(0, 60, std::move(v));
    }
    DescenderOptions opts = OracleOpts(radius, 1, 2);
    opts.znormalize = false;
    opts.min_size = 2;
    OracleCheck check(opts);
    ASSERT_TRUE(check.AddTraces(traces));
  }
}

TEST(ClusterBatchOracleTest, ManyIdenticalTraces) {
  std::vector<ts::Series> traces = MixedTraces(1, 4, 4, 12, 24);
  const ts::Series twin = traces[0];
  for (size_t i = 0; i < 60; ++i) traces.push_back(twin);
  OracleCheck check(OracleOpts(0.8, 2, 4));
  ASSERT_TRUE(check.AddTraces(traces));
  EXPECT_GE(check.descender().neighbors(0).size(), 60u);
}

TEST(ClusterBatchOracleTest, SecondBatchOnNonEmptyDescender) {
  auto traces = MixedTraces(4, 10, 10, 12, 25);
  std::vector<ts::Series> first(traces.begin(), traces.begin() + 20);
  std::vector<ts::Series> second(traces.begin() + 23, traces.end());
  OracleCheck check(OracleOpts(1.5, 2, 2));
  ASSERT_TRUE(check.AddTraces(first));
  for (size_t i = 20; i < 23; ++i) check.AddTrace(traces[i]);
  ASSERT_TRUE(check.AddTraces(second));
}

}  // namespace
}  // namespace dbaugur::cluster
