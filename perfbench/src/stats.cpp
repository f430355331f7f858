#include "stats.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace perfbench {

Quantile Percentile(std::vector<double> v, double q) {
  Quantile out;
  out.samples = v.size();
  if (v.empty()) return out;
  q = std::clamp(q, 0.0, 1.0);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  out.value = v[idx];
  return out;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

StridedSampler::StridedSampler(size_t cap) : cap_(std::max<size_t>(cap, 2)) {
  samples_.reserve(cap_);
}

void StridedSampler::Add(double x) {
  uint64_t index = seen_++;
  if (index % stride_ != 0) return;
  if (samples_.size() == cap_) {
    // Keep retained positions 0, 2, 4, ...: the additions at multiples of
    // the doubled stride.
    size_t kept = 0;
    for (size_t j = 0; j < samples_.size(); j += 2) samples_[kept++] = samples_[j];
    samples_.resize(kept);
    stride_ *= 2;
    if (index % stride_ != 0) return;
  }
  samples_.push_back(x);
}

int64_t CoveredNs(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  int64_t covered = 0;
  int64_t run_begin = 0, run_end = 0;
  bool open = false;
  for (const Interval& c : children) {
    if (c.end <= c.begin) continue;
    if (open && c.begin <= run_end) {
      run_end = std::max(run_end, c.end);
      continue;
    }
    if (open) covered += run_end - run_begin;
    run_begin = c.begin;
    run_end = c.end;
    open = true;
  }
  if (open) covered += run_end - run_begin;
  return covered;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index_of.find(s.parent);
    if (it != index_of.end()) children[it->second].push_back({s.begin_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    Interval p{spans[i].begin_ns, spans[i].end_ns};
    self[i] = (p.end - p.begin) - CoveredNs(p, children[i]);
  }
  return self;
}

size_t ChunkCount(size_t n, size_t chunk) {
  if (n == 0) return 0;
  chunk = std::max<size_t>(chunk, 1);
  return std::max<size_t>(1, (n + chunk / 2) / chunk);
}

std::vector<std::string> SplitLines(const std::string& text, size_t lines_per_chunk) {
  std::vector<size_t> ends;  // offset just past each line
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') ends.push_back(i + 1);
  }
  if (!text.empty() && text.back() != '\n') ends.push_back(text.size());
  const size_t n = ends.size(), chunks = ChunkCount(n, lines_per_chunk);
  std::vector<std::string> out;
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t end = ends[(c + 1) * n / chunks - 1];
    out.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return out;
}

double ServiceCpuSeconds(double process_delta_s,
                         const std::vector<double>& generator_deltas_s) {
  double s = process_delta_s;
  for (double g : generator_deltas_s) s -= g;
  return std::max(s, 0.0);
}

}  // namespace perfbench
