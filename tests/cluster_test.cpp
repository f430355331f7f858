// Tests for the Ball-Tree neighbor index and Descender clustering.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "cluster/ball_tree.h"
#include "cluster/descender.h"
#include "common/rng.h"
#include "dtw/dtw.h"
#include "workloads/generators.h"

namespace dbaugur::cluster {
namespace {

// The exact metric the tree's pruning is checked under.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return std::sqrt(s);
}

std::vector<std::vector<double>> RandomPoints(size_t n, size_t dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (double& x : p) x = rng.Gaussian();
  }
  return pts;
}

std::vector<size_t> BruteRange(const std::vector<std::vector<double>>& pts,
                               const std::vector<double>& q, double r) {
  std::vector<size_t> out;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (EuclideanDistance(pts[i], q) <= r) out.push_back(i);
  }
  return out;
}

TEST(BallTreeTest, RangeQueryMatchesBruteForceEuclidean) {
  auto pts = RandomPoints(300, 8, 17);
  auto tree = BallTree::Build(pts, EuclideanDistance, {4});
  ASSERT_TRUE(tree.ok());
  Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(8);
    for (double& x : q) x = rng.Gaussian();
    double r = rng.Uniform(0.5, 3.0);
    auto got = tree->RangeQuery(q, r);
    auto want = BruteRange(pts, q, r);
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(BallTreeTest, PruningActuallySkipsDistanceEvals) {
  auto pts = RandomPoints(2000, 4, 21);
  auto tree = BallTree::Build(pts, EuclideanDistance, {16});
  ASSERT_TRUE(tree.ok());
  std::vector<double> q(4, 0.0);
  tree->RangeQuery(q, 0.3);
  // Pruned search must touch far fewer points than brute force would.
  EXPECT_LT(tree->distance_evals(), 2000);
}

TEST(BallTreeTest, EmptyAndErrorCases) {
  auto empty = BallTree::Build({}, EuclideanDistance);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->RangeQuery({1.0}, 1.0).empty());
  EXPECT_FALSE(BallTree::Build({{1.0}}, nullptr).ok());
  EXPECT_FALSE(BallTree::Build({{1.0}, {1.0, 2.0}}, EuclideanDistance).ok());
}

TEST(BallTreeTest, DuplicatePointsHandled) {
  std::vector<std::vector<double>> pts(50, std::vector<double>{1.0, 2.0});
  auto tree = BallTree::Build(pts, EuclideanDistance, {4});
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->RangeQuery({1.0, 2.0}, 0.1).size(), 50u);
}

TEST(BallTreeTest, DtwRangeQueryRecallRegression) {
  // Seeded exact-vs-Ball-Tree RangeQuery comparison under the non-metric DTW
  // distance. The recall on this fixed workload is pinned so Ball-Tree
  // refactors cannot silently start dropping neighbors: any regression in
  // the pruning bound shows up as found < expected.
  std::vector<std::vector<double>> pts;
  for (int fam = 0; fam < 3; ++fam) {
    workloads::WarpedFamilyOptions opts;
    opts.members = 10;
    opts.max_shift = 2.0;
    opts.phase = fam * 2.0 * M_PI / 3.0;
    opts.seed = 150 + static_cast<uint64_t>(fam);
    for (auto& s : workloads::GenerateWarpedFamily(opts)) {
      pts.push_back(s.values());
    }
  }
  dtw::DtwOptions dopts{8};
  auto dist = [dopts](const std::vector<double>& a,
                      const std::vector<double>& b) {
    auto d = dtw::DtwDistance(a, b, dopts);
    return d.ok() ? *d : 1e300;
  };
  auto tree = BallTree::Build(pts, dist, {4});
  ASSERT_TRUE(tree.ok());
  size_t found = 0, expected = 0, false_positives = 0;
  for (size_t q = 0; q < pts.size(); ++q) {
    auto got = tree->RangeQuery(pts[q], 3.0);
    std::set<size_t> got_set(got.begin(), got.end());
    for (size_t i = 0; i < pts.size(); ++i) {
      bool truly_within = dist(pts[q], pts[i]) <= 3.0;
      if (truly_within) {
        ++expected;
        if (got_set.count(i)) ++found;
      } else if (got_set.count(i)) {
        ++false_positives;
      }
    }
  }
  // Leaves re-check the true distance, so the tree can never over-report.
  EXPECT_EQ(false_positives, 0u);
  // Non-trivial query load: every family member sees its whole family.
  EXPECT_GE(expected, 300u);
  // Pinned recall for this seed: the tree finds 345 of 358 true neighbors
  // (~96%) — DTW violates the triangle inequality, so the pruning bound is
  // heuristic and some misses are expected. A drop below the pinned floor
  // means a Ball-Tree change made the pruning lossier; improvements (up to
  // exact recall) are welcome and will still pass.
  EXPECT_EQ(expected, 358u);
  EXPECT_GE(found, 345u);
}

DescenderOptions MakeOpts(double radius, size_t min_size = 3,
                          int window = 8) {
  DescenderOptions opts;
  opts.radius = radius;
  opts.min_size = min_size;
  opts.dtw.window = window;
  return opts;
}

// Family options where intra-family shifts stay well inside the DTW band
// while anti-phase families remain far outside it. (With shifts comparable
// to the band, DBSCAN's density chaining can legitimately bridge anti-phase
// families through intermediate shifts — that is correct clustering
// behaviour, not what this test probes.)
workloads::WarpedFamilyOptions TightFamily(double phase, uint64_t seed) {
  workloads::WarpedFamilyOptions fam;
  fam.members = 8;
  fam.max_shift = 2.0;
  fam.phase = phase;
  fam.seed = seed;
  return fam;
}

TEST(DescenderTest, SeparatesTwoWarpedFamilies) {
  auto family_a = workloads::GenerateWarpedFamily(TightFamily(0.0, 31));
  auto family_b = workloads::GenerateWarpedFamily(TightFamily(M_PI, 32));

  Descender desc(MakeOpts(3.0, 3, 4));
  std::vector<ts::Series> all = family_a;
  for (auto& s : family_b) all.push_back(s);
  ASSERT_TRUE(desc.AddTraces(all).ok());

  // All of family A share one label, all of family B another, distinct.
  int label_a = desc.label(0);
  for (size_t i = 1; i < family_a.size(); ++i) {
    EXPECT_EQ(desc.label(i), label_a) << i;
  }
  int label_b = desc.label(family_a.size());
  EXPECT_NE(label_a, label_b);
  for (size_t i = family_a.size() + 1; i < all.size(); ++i) {
    EXPECT_EQ(desc.label(i), label_b) << i;
  }
  EXPECT_EQ(desc.density_cluster_count(), 2u);
}

TEST(DescenderTest, OutlierBecomesSingletonCluster) {
  workloads::WarpedFamilyOptions fam;
  fam.members = 6;
  fam.seed = 33;
  Descender desc(MakeOpts(4.0));
  ASSERT_TRUE(desc.AddTraces(workloads::GenerateWarpedFamily(fam)).ok());
  // An outlier trace: white noise, z-normalized it still won't warp onto the
  // sine family.
  Rng rng(34);
  std::vector<double> noise(96);
  size_t k = 0;
  for (double& x : noise) x = (k++ % 7 == 0) ? rng.Uniform(-9, 9) : rng.Gaussian(0, 3.0);
  auto idx = desc.AddTrace(ts::Series(0, 600, noise, "outlier"));
  ASSERT_TRUE(idx.ok());
  EXPECT_FALSE(desc.is_core(*idx));
  // It has its own singleton cluster.
  int label = desc.label(*idx);
  size_t members = 0;
  for (size_t i = 0; i < desc.trace_count(); ++i) {
    if (desc.label(i) == label) ++members;
  }
  EXPECT_EQ(members, 1u);
  EXPECT_EQ(desc.density_cluster_count(), 1u);
  EXPECT_EQ(desc.cluster_count(), 2u);
}

TEST(DescenderTest, OnlineInsertMatchesBatchClustering) {
  workloads::WarpedFamilyOptions fam;
  fam.members = 5;
  fam.seed = 35;
  auto fa = workloads::GenerateWarpedFamily(fam);
  fam.phase = M_PI;
  fam.seed = 36;
  auto fb = workloads::GenerateWarpedFamily(fam);
  std::vector<ts::Series> all = fa;
  for (auto& s : fb) all.push_back(s);

  Descender batch(MakeOpts(4.0));
  ASSERT_TRUE(batch.AddTraces(all).ok());
  Descender online(MakeOpts(4.0));
  for (const auto& s : all) ASSERT_TRUE(online.AddTrace(s).ok());

  // Same partition (labels may be permuted; compare co-membership).
  for (size_t i = 0; i < all.size(); ++i) {
    for (size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_EQ(batch.label(i) == batch.label(j),
                online.label(i) == online.label(j))
          << i << "," << j;
    }
  }
}

TEST(DescenderTest, TopKOrderedByVolume) {
  // Two families with different offsets -> different volumes (distance uses
  // z-normalized shapes, so the offset doesn't affect clustering).
  workloads::WarpedFamilyOptions small = TightFamily(0.0, 37);
  small.members = 4;
  auto fa = workloads::GenerateWarpedFamily(small);
  workloads::WarpedFamilyOptions big = TightFamily(M_PI, 38);
  big.members = 4;
  auto fb = workloads::GenerateWarpedFamily(big);
  for (auto& s : fa) {
    for (auto& v : s.mutable_values()) v += 2.0;
  }
  for (auto& s : fb) {
    for (auto& v : s.mutable_values()) v += 20.0;
  }
  Descender desc(MakeOpts(3.0, 3, 4));
  ASSERT_TRUE(desc.AddTraces(fa).ok());
  ASSERT_TRUE(desc.AddTraces(fb).ok());
  auto top = desc.TopKClusters(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_GT(top[0].volume, top[1].volume);
  EXPECT_EQ(top[0].members.size(), 4u);
}

TEST(DescenderTest, RepresentativeIsMemberAverage) {
  Descender desc(MakeOpts(100.0, 2));
  ASSERT_TRUE(desc.AddTrace(ts::Series(0, 60, {1, 2, 3})).ok());
  ASSERT_TRUE(desc.AddTrace(ts::Series(0, 60, {3, 4, 5})).ok());
  ASSERT_EQ(desc.cluster_count(), 1u);
  auto rep = desc.ClusterRepresentative(desc.label(0));
  ASSERT_TRUE(rep.ok());
  EXPECT_DOUBLE_EQ((*rep)[0], 2.0);
  EXPECT_DOUBLE_EQ((*rep)[1], 3.0);
  EXPECT_DOUBLE_EQ((*rep)[2], 4.0);
}

// TraceProportion's definition, evaluated the O(n) way: trace i's volume over
// its cluster's, the cluster volume summed over members in ascending index
// order; an even split when that volume is not positive.
double ProportionByDefinition(const Descender& desc, size_t i) {
  auto volume = [&](size_t j) {
    double v = 0.0;
    for (double x : desc.trace(j).values()) v += x;
    return v;
  };
  double cluster_volume = 0.0;
  size_t members = 0;
  for (size_t j = 0; j < desc.trace_count(); ++j) {
    if (desc.label(j) == desc.label(i)) {
      cluster_volume += volume(j);
      ++members;
    }
  }
  if (cluster_volume <= 0.0) return 1.0 / static_cast<double>(members);
  return volume(i) / cluster_volume;
}

void ExpectProportionsPinned(const Descender& desc) {
  for (size_t i = 0; i < desc.trace_count(); ++i) {
    auto p = desc.TraceProportion(i);
    ASSERT_TRUE(p.ok()) << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(*p),
              std::bit_cast<uint64_t>(ProportionByDefinition(desc, i)))
        << "trace " << i << ": " << *p;
  }
  EXPECT_FALSE(desc.TraceProportion(desc.trace_count()).ok());
}

TEST(DescenderTest, TraceProportions) {
  Descender desc(MakeOpts(100.0, 2));
  ASSERT_TRUE(desc.AddTrace(ts::Series(0, 60, {1, 1, 1})).ok());  // volume 3
  ASSERT_TRUE(desc.AddTrace(ts::Series(0, 60, {3, 3, 3})).ok());  // volume 9
  auto p0 = desc.TraceProportion(0);
  auto p1 = desc.TraceProportion(1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_DOUBLE_EQ(*p0, 0.25);
  EXPECT_DOUBLE_EQ(*p1, 0.75);
  EXPECT_FALSE(desc.TraceProportion(5).ok());
  ExpectProportionsPinned(desc);

  // Zero- and negative-volume clusters split evenly. The three constant
  // traces z-normalize to zeros and form one cluster of volume 0; {2, -2, 0}
  // stays a singleton of volume 0. The later {-5, -5, -5} joins the zeros
  // and turns their cluster's volume negative.
  Descender flat(MakeOpts(0.5, 2));
  std::vector<ts::Series> constant = {
      ts::Series(0, 60, {1, 1, 1}), ts::Series(0, 60, {-1, -1, -1}),
      ts::Series(0, 60, {0, 0, 0}), ts::Series(0, 60, {2, -2, 0})};
  ASSERT_TRUE(flat.AddTraces(constant).ok());
  ASSERT_EQ(flat.label(0), flat.label(2));
  EXPECT_DOUBLE_EQ(*flat.TraceProportion(0), 1.0 / 3.0);
  ExpectProportionsPinned(flat);
  ASSERT_TRUE(flat.AddTrace(ts::Series(0, 60, {-5, -5, -5})).ok());
  ExpectProportionsPinned(flat);

  // Many members with volumes whose sum depends on the addition order, over
  // a first batch, a single insert and a second batch on the non-empty
  // Descender.
  std::vector<ts::Series> first, second;
  Rng rng(41);
  for (size_t fam = 0; fam < 3; ++fam) {
    workloads::WarpedFamilyOptions opts =
        TightFamily(static_cast<double>(fam) * 2.0 * M_PI / 3.0, 42 + fam);
    opts.members = 12;
    auto members = workloads::GenerateWarpedFamily(opts);
    for (size_t m = 0; m < members.size(); ++m) {
      // Scales spanning orders of magnitude (shape, hence clusters, kept).
      const double scale = std::pow(10.0, rng.Uniform(-3.0, 3.0));
      for (double& v : members[m].mutable_values()) v = v * scale + 0.1;
      (m % 2 == 0 ? first : second).push_back(std::move(members[m]));
    }
  }
  Descender mixed(MakeOpts(3.0, 3, 4));
  ASSERT_TRUE(mixed.AddTraces(first).ok());
  ExpectProportionsPinned(mixed);
  ASSERT_TRUE(mixed.AddTrace(second.back()).ok());
  second.pop_back();
  ExpectProportionsPinned(mixed);
  ASSERT_TRUE(mixed.AddTraces(second).ok());
  EXPECT_LT(mixed.cluster_count(), mixed.trace_count());
  ExpectProportionsPinned(mixed);
}

TEST(DescenderTest, InputValidation) {
  Descender desc(MakeOpts(1.0));
  EXPECT_FALSE(desc.AddTrace(ts::Series(0, 60, {})).ok());
  ASSERT_TRUE(desc.AddTrace(ts::Series(0, 60, {1, 2, 3})).ok());
  EXPECT_FALSE(desc.AddTrace(ts::Series(0, 60, {1, 2})).ok());
  EXPECT_FALSE(desc.ClusterRepresentative(99).ok());
}

}  // namespace
}  // namespace dbaugur::cluster
