#include "cluster/ball_tree.h"

#include <algorithm>

#include "common/contracts.h"

namespace dbaugur::cluster {

namespace {
// Max points per leaf.
constexpr size_t kLeafSize = 4;
}  // namespace

StatusOr<BallTree> BallTree::Build(std::vector<std::vector<double>> points,
                                   DistanceFn distance) {
  if (!distance) return Status::InvalidArgument("BallTree: null distance fn");
  for (const auto& p : points) {
    if (p.size() != points[0].size()) {
      return Status::InvalidArgument("BallTree: inconsistent dimensionality");
    }
  }
  BallTree tree;
  tree.points_ = std::move(points);
  tree.distance_ = std::move(distance);
  if (!tree.points_.empty()) {
    std::vector<size_t> idx(tree.points_.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    tree.root_ = tree.BuildNode(std::move(idx));
  }
  return tree;
}

std::unique_ptr<BallTree::Node> BallTree::BuildNode(std::vector<size_t> idx) {
  DBAUGUR_CHECK(!idx.empty(), "BallTree::BuildNode on an empty partition");
  auto node = std::make_unique<Node>();
  // Centroid = coordinate-wise mean (fine even for non-Euclidean distances:
  // it only needs to be *some* pivot; correctness comes from the radius).
  size_t dim = points_[idx[0]].size();
  node->centroid.assign(dim, 0.0);
  for (size_t i : idx) {
    for (size_t d = 0; d < dim; ++d) node->centroid[d] += points_[i][d];
  }
  for (double& c : node->centroid) c /= static_cast<double>(idx.size());
  node->radius = 0.0;
  for (size_t i : idx) {
    node->radius = std::max(node->radius, distance_(node->centroid, points_[i]));
  }
  // A NaN or negative radius breaks the pruning bound in RangeSearch; catch a
  // broken user distance function here instead of silently dropping matches.
  DBAUGUR_CHECK(node->radius >= 0.0,
                "BallTree: distance function produced invalid ball radius ",
                node->radius);
  if (idx.size() <= kLeafSize) {
    node->indices = std::move(idx);
    return node;
  }
  // Split along the dimension of greatest spread at its median.
  size_t best_dim = 0;
  double best_spread = -1.0;
  for (size_t d = 0; d < dim; ++d) {
    double mn = points_[idx[0]][d], mx = mn;
    for (size_t i : idx) {
      mn = std::min(mn, points_[i][d]);
      mx = std::max(mx, points_[i][d]);
    }
    if (mx - mn > best_spread) {
      best_spread = mx - mn;
      best_dim = d;
    }
  }
  if (best_spread <= 0.0) {
    // All points identical: make a leaf regardless of size.
    node->indices = std::move(idx);
    return node;
  }
  size_t mid = idx.size() / 2;
  std::nth_element(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(mid),
                   idx.end(), [&](size_t a, size_t b) {
                     return points_[a][best_dim] < points_[b][best_dim];
                   });
  std::vector<size_t> left(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(mid));
  std::vector<size_t> right(idx.begin() + static_cast<ptrdiff_t>(mid), idx.end());
  if (left.empty() || right.empty()) {
    node->indices = std::move(idx);
    return node;
  }
  DBAUGUR_DCHECK_EQ(left.size() + right.size(), idx.size(),
                    "BallTree: split lost or duplicated points");
  node->left = BuildNode(std::move(left));
  node->right = BuildNode(std::move(right));
  return node;
}

std::vector<size_t> BallTree::RangeQuery(const std::vector<double>& query,
                                         double radius) const {
  std::vector<size_t> out;
  if (root_) RangeSearch(root_.get(), query, radius, &out);
  std::sort(out.begin(), out.end());
  return out;
}

void BallTree::RangeSearch(const Node* node, const std::vector<double>& query,
                           double radius, std::vector<size_t>* out) const {
  ++distance_evals_;
  double dc = distance_(query, node->centroid);
  if (dc > radius + node->radius) return;  // ball cannot intersect query ball
  if (node->is_leaf()) {
    for (size_t i : node->indices) {
      ++distance_evals_;
      if (distance_(query, points_[i]) <= radius) out->push_back(i);
    }
    return;
  }
  RangeSearch(node->left.get(), query, radius, out);
  RangeSearch(node->right.get(), query, radius, out);
}

}  // namespace dbaugur::cluster
