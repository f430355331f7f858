// Hand-computed checks of the benchmark's own arithmetic (stats.h). Exits 0
// when every check holds; prints each failure and exits 1 otherwise.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cstdio>
#include <vector>

#include "stats.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

void TestPercentile() {
  // Nearest rank over {1..10}: p50 -> rank 5 -> 5; p90 -> rank 9 -> 9;
  // p99 -> rank ceil(9.9) = 10 -> 10; p0 -> the minimum.
  std::vector<double> v = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  Expect(Percentile(v, 0.5).value == 5.0, "p50 of 1..10 is 5");
  Expect(Percentile(v, 0.9).value == 9.0, "p90 of 1..10 is 9");
  Expect(Percentile(v, 0.99).value == 10.0, "p99 of 1..10 is 10");
  Expect(Percentile(v, 0.0).value == 1.0, "p0 is the minimum");
  Expect(Percentile(v, 0.5).samples == 10, "sample count is reported");
  // 200 samples 1..200: p99 -> rank 198 -> 198, with two samples above it.
  std::vector<double> w;
  for (int i = 200; i >= 1; --i) w.push_back(i);
  Quantile p99 = Percentile(w, 0.99);
  Expect(p99.value == 198.0 && p99.samples == 200, "p99 of 1..200 is 198");
  Quantile empty = Percentile({}, 0.5);
  Expect(empty.value == 0.0 && empty.samples == 0, "empty input gives {0, 0}");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");
  Expect(Median({5, 1, 3}) == 3.0, "odd median is the middle value");
  Expect(Median({}) == 0.0, "empty median is 0");
}

void TestStridedSampler() {
  // cap 4 over additions 0..9: fills [0,1,2,3]; at 4 it halves to [0,2]
  // (stride 2) and keeps 4, 6; at 8 it halves to [0,4] (stride 4) and
  // keeps 8. Retained: exactly the multiples of the final stride.
  StridedSampler s(4);
  for (int i = 0; i < 10; ++i) s.Add(i);
  Expect(s.samples() == std::vector<double>({0, 4, 8}), "cap 4 over 0..9");
  Expect(s.stride() == 4 && s.seen() == 10, "stride 4 after 10 additions");

  // Odd cap: 3 over 0..6 -> [0,1,2]; at 3 it halves to [0,2] (stride 2),
  // 3 is not a multiple of 2 and is skipped; 4 is kept -> [0,2,4]; at 6 it
  // halves to [0,4] (stride 4), 6 is skipped.
  StridedSampler odd(3);
  for (int i = 0; i < 7; ++i) odd.Add(i);
  Expect(odd.samples() == std::vector<double>({0, 4}), "cap 3 over 0..6");

  // Coverage: 100000 additions into 1000 slots. The retained samples start
  // at the first addition and reach the last stride-sized stretch, so
  // percentiles describe the whole measured interval, not its beginning.
  StridedSampler big(1000);
  for (int i = 0; i < 100000; ++i) big.Add(i);
  const std::vector<double>& k = big.samples();
  Expect(k.front() == 0.0, "first addition retained");
  Expect(k.back() >= 100000 - static_cast<double>(big.stride()),
         "last stride of the interval retained");
  Expect(k.size() > 500 && k.size() <= 1000, "between cap/2 and cap retained");
  bool even = true;
  for (size_t i = 1; i < k.size(); ++i) {
    even = even && (k[i] - k[i - 1] == static_cast<double>(big.stride()));
  }
  Expect(even, "retained samples are evenly strided");
}

void TestSelfTime() {
  // Parent [0,100). Children on two parallel workers overlap: [10,40) and
  // [30,60) cover [10,60) = 50 ns together, not 60. A third child [90,120)
  // is clipped to [90,100). Covered = 60, self = 40.
  Expect(CoveredNs({0, 100}, {{10, 40}, {30, 60}, {90, 120}}) == 60,
         "overlapping children counted once, clipped to the parent");
  Expect(CoveredNs({0, 100}, {}) == 0, "no children cover nothing");
  Expect(CoveredNs({0, 100}, {{0, 100}, {20, 30}}) == 100, "nested overlap");
  Expect(CoveredNs({50, 60}, {{0, 10}}) == 0, "child outside the parent");

  // Tree: root [0,1000) with children a [100,400) and b [300,700) that run
  // in parallel; a has a grandchild g [150,250). Only direct children count:
  // root self = 1000 - |[100,700)| = 400; a self = 300 - 100 = 200;
  // b self = 400; g self = 100.
  std::vector<Span> spans = {
      {"root", 0, 1000, 1, -1, 0, -1},
      {"a", 100, 400, 2, 1, 0, -1},
      {"b", 300, 700, 3, 1, 0, -1},
      {"g", 150, 250, 4, 2, 0, -1},
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self == std::vector<int64_t>({400, 200, 400, 100}),
         "self times of a tree with parallel children");
}

void TestChunks() {
  // 10 items at about 4 per chunk: 10/4 = 2.5 rounds to 3 chunks, holding
  // [0,3), [3,6), [6,10). 5 at about 4: 1.25 rounds to 1. 1 item at about
  // 1024 still makes one chunk; nothing makes none.
  Expect(ChunkCount(10, 4) == 3, "10 items at ~4 make 3 chunks");
  Expect(ChunkCount(5, 4) == 1, "5 items at ~4 make 1 chunk");
  Expect(ChunkCount(1, 1024) == 1, "a short input is one chunk");
  Expect(ChunkCount(0, 1024) == 0, "an empty input has no chunks");
  Expect(ChunkCount(20480, 1024) == 20, "exact multiple");

  // Five lines at about 2 per chunk: 2.5 rounds to 3 chunks at line
  // boundaries 5/3 = 1, 10/3 = 3 and 5 -> {a}, {b, c}, {d, e}.
  Expect(SplitLines("a\nb\nc\nd\ne\n", 2) ==
             std::vector<std::string>({"a\n", "b\nc\n", "d\ne\n"}),
         "five lines at ~2 per chunk");
  Expect(SplitLines("x\ny", 8) == std::vector<std::string>({"x\ny"}),
         "unterminated last line kept");
  Expect(SplitLines("", 8).empty(), "no text, no chunks");
}

void TestServiceCpu() {
  // Process used 10 s; the producer used 0.5 s and two readers 0.3 s and
  // 0.2 s: the service used 9 s.
  Expect(ServiceCpuSeconds(10.0, {0.5, 0.3, 0.2}) == 9.0,
         "generator threads subtracted");
  Expect(ServiceCpuSeconds(2.0, {}) == 2.0, "no generator threads");
  // Clock reads a few instructions apart can leave a tiny negative
  // remainder; it is reported as 0, never as negative CPU.
  Expect(ServiceCpuSeconds(0.1, {0.1000001}) == 0.0, "floored at zero");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestStridedSampler();
  perfbench::TestSelfTime();
  perfbench::TestChunks();
  perfbench::TestServiceCpu();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
