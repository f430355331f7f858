// Arithmetic the benchmark reports with: percentiles with their sample
// count, a bounded sampler that spans the whole measured interval, span self
// time, and the CPU left to the service once generator threads are taken out.
// Everything here is pure and covered by selftest.cpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples it was selected from.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
};

/// Nearest-rank percentile: the smallest sample x such that at least
/// ceil(q * n) samples are <= x. q is clamped to [0, 1]; q = 0 gives the
/// minimum. An empty input gives {0, 0}.
Quantile Percentile(std::vector<double> v, double q);

/// Conventional median (mean of the two middle values for an even count);
/// 0 for an empty input. Used for per-cycle values, where counts are small.
double Median(std::vector<double> v);

/// Keeps at most `cap` samples spread evenly over everything added. When the
/// buffer fills, every second retained sample is dropped and the stride
/// doubles, so the retained samples are always exactly the additions whose
/// index is a multiple of stride(): the first sample and the latest ones are
/// both represented, whatever the run length.
class StridedSampler {
 public:
  explicit StridedSampler(size_t cap);
  void Add(double x);
  const std::vector<double>& samples() const { return samples_; }
  uint64_t seen() const { return seen_; }
  uint64_t stride() const { return stride_; }

 private:
  size_t cap_;
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;
  std::vector<double> samples_;
};

/// Half-open time interval in nanoseconds.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Nanoseconds of `parent` covered by the union of `children`, each clipped
/// to the parent. Children may overlap one another (parallel workers).
int64_t CoveredNs(Interval parent, std::vector<Interval> children);

/// One traced call: a named interval with the span that caused it.
struct Span {
  std::string name;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  ///< id of the enclosing span; -1 for a root.
  int64_t cycle = -1;   ///< measured cycle; -1 outside the measured phase.
  int64_t shard = -1;   ///< shard the call worked on; -1 when none.
};

/// Self time of every span (same order as `spans`): its duration minus the
/// part of it that its direct children cover.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Number of near-equal chunks that `n` items split into when a chunk should
/// hold about `chunk` items: n / chunk rounded to nearest, at least 1 for a
/// non-empty input and 0 for an empty one. Chunk i of k then holds items
/// [i * n / k, (i + 1) * n / k), so once n >= chunk every chunk holds
/// between 3/4 and 3/2 of `chunk` items, give or take one.
size_t ChunkCount(size_t n, size_t chunk);

/// Splits newline-terminated text into ChunkCount(lines, lines_per_chunk)
/// pieces of whole lines with near-equal line counts (the same boundaries as
/// ChunkCount's items). A final line without a newline counts as a line.
std::vector<std::string> SplitLines(const std::string& text, size_t lines_per_chunk);

/// CPU seconds the service used in a window: the process CPU delta minus the
/// deltas of the benchmark's own generator threads, floored at 0 (clocks are
/// read a few instructions apart, so a tiny negative remainder is noise).
double ServiceCpuSeconds(double process_delta_s,
                         const std::vector<double>& generator_deltas_s);

}  // namespace perfbench
