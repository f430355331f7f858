#include "ts/series.h"

#include <utility>

namespace dbaugur::ts {

StatusOr<Series> Series::AggregateSum(size_t factor) const {
  if (factor == 0) return Status::InvalidArgument("aggregate factor must be > 0");
  std::vector<double> out;
  out.reserve(values_.size() / factor);
  for (size_t i = 0; i + factor <= values_.size(); i += factor) {
    double s = 0.0;
    for (size_t j = 0; j < factor; ++j) s += values_[i + j];
    out.push_back(s);
  }
  return Series(start_, interval_ * static_cast<int64_t>(factor), std::move(out),
                name_);
}

StatusOr<Series> Series::AggregateMean(size_t factor) const {
  auto summed = AggregateSum(factor);
  if (!summed.ok()) return summed.status();
  for (double& v : summed->mutable_values()) v /= static_cast<double>(factor);
  return std::move(summed).value();
}

StatusOr<Series> Series::Average(const std::vector<Series>& traces) {
  if (traces.empty()) return Status::InvalidArgument("Average: no traces");
  Series out = traces[0];
  for (size_t k = 1; k < traces.size(); ++k) {
    if (traces[k].size() != out.size()) {
      return Status::InvalidArgument("Average: trace length mismatch");
    }
    for (size_t i = 0; i < out.size(); ++i) out[i] += traces[k][i];
  }
  const double n = static_cast<double>(traces.size());
  for (double& v : out.mutable_values()) v /= n;
  return out;
}

std::vector<double> Difference(const std::vector<double>& v, int d) {
  std::vector<double> cur = v;
  for (int k = 0; k < d && cur.size() > 1; ++k) {
    std::vector<double> next(cur.size() - 1);
    for (size_t i = 0; i + 1 < cur.size(); ++i) next[i] = cur[i + 1] - cur[i];
    cur = std::move(next);
  }
  return cur;
}

}  // namespace dbaugur::ts
