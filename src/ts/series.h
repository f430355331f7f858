// Time-series containers and transforms.
//
// A `Series` is a uniformly sampled workload trace: a start timestamp, a
// sampling interval (the paper's *forecasting interval*), and the sequence of
// values (arrival rates or utilization ratios).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace dbaugur::ts {

/// Seconds since epoch; plain integer keeps the library self-contained.
using Timestamp = int64_t;

/// A uniformly sampled workload trace.
class Series {
 public:
  Series() = default;
  /// `interval_seconds` is the forecasting interval I between adjacent values.
  Series(Timestamp start, int64_t interval_seconds, std::vector<double> values,
         std::string name = "")
      : start_(start),
        interval_(interval_seconds),
        values_(std::move(values)),
        name_(std::move(name)) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double operator[](size_t i) const { return values_[i]; }
  double& operator[](size_t i) { return values_[i]; }

  Timestamp start() const { return start_; }
  int64_t interval_seconds() const { return interval_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() { return values_; }
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Re-bins this series into a coarser interval by summing each group of
  /// `factor` consecutive samples (the paper aggregates counts when enlarging
  /// the forecasting interval). A trailing partial group is dropped.
  StatusOr<Series> AggregateSum(size_t factor) const;

  /// Same as AggregateSum but averaging (appropriate for utilization ratios).
  StatusOr<Series> AggregateMean(size_t factor) const;

  /// Element-wise mean of equally-shaped series (cluster representative).
  /// InvalidArgument when empty or on a length mismatch.
  static StatusOr<Series> Average(const std::vector<Series>& traces);

 private:
  Timestamp start_ = 0;
  int64_t interval_ = 60;
  std::vector<double> values_;
  std::string name_;
};

/// Applies first-order differencing d times (ARIMA's "I"). Output is shorter
/// by d samples.
std::vector<double> Difference(const std::vector<double>& v, int d);

}  // namespace dbaugur::ts
