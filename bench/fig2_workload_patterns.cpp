// Fig. 2 — Workload Patterns: prints the two evaluation traces (BusTracker
// query counts, Alibaba disk utilization) as series plus the summary
// statistics that characterize their published shapes: one-day cycle with
// crests/troughs vs a longer faint period with strong local linearity and
// bursts.

#include <cstdio>

#include "bench_util.h"
#include "common/math_utils.h"
#include "common/table_printer.h"
#include "ts/analysis.h"

using namespace dbaugur;
using namespace dbaugur::bench;

namespace {

void Summarize(const Dataset& ds, size_t day_steps) {
  const auto& v = ds.values;
  double mean = Mean(v), sd = StdDev(v);
  double mx = v[0];
  size_t bursts = 0;
  for (double x : v) {
    mx = std::max(mx, x);
    if (x > mean + 3 * sd) ++bursts;
  }
  TablePrinter t({"stat", "value"});
  t.AddRow({"samples (10-min bins)", std::to_string(v.size())});
  t.AddRow({"mean", TablePrinter::Fmt(mean, 3)});
  t.AddRow({"stddev", TablePrinter::Fmt(sd, 3)});
  t.AddRow({"max / mean", TablePrinter::Fmt(mx / mean, 2)});
  t.AddRow({"lag-1 autocorrelation",
            TablePrinter::Fmt(ts::Autocorrelation(v, 1), 3)});
  t.AddRow({"one-day autocorrelation",
            TablePrinter::Fmt(ts::Autocorrelation(v, day_steps), 3)});
  t.AddRow({"samples > mean+3sd (bursts)", std::to_string(bursts)});
  t.Print();

  // A coarse ASCII series so the shape is visible in terminal output.
  std::printf("series (each char = %zu bins, height ~ mean of chunk):\n",
              v.size() / 72 + 1);
  size_t chunk = v.size() / 72 + 1;
  double lo = 1e300, hi = -1e300;
  std::vector<double> chunks;
  for (size_t i = 0; i < v.size(); i += chunk) {
    double s = 0;
    size_t n = std::min(chunk, v.size() - i);
    for (size_t j = 0; j < n; ++j) s += v[i + j];
    chunks.push_back(s / static_cast<double>(n));
    lo = std::min(lo, chunks.back());
    hi = std::max(hi, chunks.back());
  }
  for (int row = 5; row >= 0; --row) {
    std::printf("  ");
    for (double c : chunks) {
      double level = (c - lo) / std::max(1e-12, hi - lo) * 6.0;
      std::printf("%c", level >= row ? '#' : ' ');
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Fig. 2(a): BusTracker-like query counts ===\n");
  Summarize(MakeBusTrackerDataset(), 144);
  std::printf("=== Fig. 2(b): Alibaba-cluster-like disk utilization ===\n");
  Summarize(MakeAlibabaDataset(), 144);
  std::printf(
      "Expected (paper): (a) clear one-day cycle with crests/troughs;\n"
      "(b) weaker/longer periodicity, near-1 lag-1 autocorrelation (local\n"
      "linearity), and visible bursts.\n");
  return 0;
}
