// Ball-Tree (Omohundro 1989) for accelerated neighbor search over workload
// traces (paper §IV-C: "Ball-Tree is integrated in this clustering method to
// accelerate the nearest neighbor search").
//
// The tree is built with a pluggable distance function. With a true metric
// (Euclidean) the triangle-inequality pruning is exact. DTW violates the
// triangle inequality, so the paper's Ball-Tree-over-DTW search is inherently
// heuristic; Descender searches exactly with the LB cascade instead, and
// bench/ablation_clustering measures this tree's recall under DTW.

#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"

namespace dbaugur::cluster {

/// Distance callable over stored points.
using DistanceFn =
    std::function<double(const std::vector<double>&, const std::vector<double>&)>;

/// Options controlling Ball-tree construction.
struct BallTreeOptions {
  size_t leaf_size = 8;  ///< Max points per leaf.
};

/// Ball-tree over a fixed point set.
class BallTree {
 public:
  /// Builds the tree. Points must all share one dimensionality.
  static StatusOr<BallTree> Build(std::vector<std::vector<double>> points,
                                  DistanceFn distance,
                                  BallTreeOptions opts = BallTreeOptions());

  /// Indices of all points within `radius` of `query` (pruned search; exact
  /// when `distance` is a metric).
  std::vector<size_t> RangeQuery(const std::vector<double>& query,
                                 double radius) const;

  /// Distance computations performed by queries so far (pruning telemetry).
  int64_t distance_evals() const { return distance_evals_; }

 private:
  struct Node {
    std::vector<double> centroid;
    double radius = 0.0;
    // Leaf: point indices. Internal: children.
    std::vector<size_t> indices;
    std::unique_ptr<Node> left, right;
    bool is_leaf() const { return !left; }
  };

  BallTree() = default;
  std::unique_ptr<Node> BuildNode(std::vector<size_t> idx, size_t leaf_size);
  void RangeSearch(const Node* node, const std::vector<double>& query,
                   double radius, std::vector<size_t>* out) const;

  std::vector<std::vector<double>> points_;
  DistanceFn distance_;
  std::unique_ptr<Node> root_;
  mutable int64_t distance_evals_ = 0;
};

}  // namespace dbaugur::cluster
