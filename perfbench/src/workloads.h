// The benchmark's three workloads and their seeded input generators.
//
// Inputs are generated here, from the seed alone, with the benchmark's own
// hashing; nothing goes through the library's generators or RNG, so a change
// to the library cannot change the input it is measured on. The whole input
// (every bin the run offers, plus the realized counts of the bin the last
// forecast targets) is generated before the service is built, and its
// digest is recorded with each result.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/sharded_service.h"

namespace perfbench {

/// SplitMix64 finalizer.
uint64_t Mix(uint64_t x);
/// Uniform [0, 1) from a hash of (seed, a, b, c).
double UnitOf(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0);

/// Sequential seeded stream (SplitMix64).
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();             ///< [0, 1)
  uint64_t Below(uint64_t n);   ///< [0, n), n >= 1
  double Normal();              ///< standard normal (Box-Muller)
  int64_t Poisson(double lambda);

 private:
  uint64_t state_;
};

/// What the producer offers at one bin's due point.
struct BinInput {
  /// Event workloads: the events, template_id = generator template index.
  std::vector<dbaugur::serve::TraceEvent> events;
  /// Raw-log workloads: "<epoch> <sql>" lines, and each line's generator
  /// template (used only to check the templater and to score forecasts).
  std::string log;
  std::vector<uint32_t> line_template;
};

struct WorkloadSpec {
  std::string name;
  dbaugur::serve::ShardedServeOptions service;
  size_t templates = 0;         ///< Templates the generator defines.
  size_t warmup_bins = 0;       ///< History offered before the first train.
  size_t measured_cycles = 0;   ///< One new bin and one cycle each.
  /// > 0: open loop, one bin falls due every period; 0: closed loop, the
  /// next bin is offered as soon as the previous cycle has published.
  double bin_period_s = 0.0;
  size_t readers = 1;           ///< Reader threads during the measured phase.
  size_t setup_reps = 3;        ///< Cold starts per run (setup_s is their median).
  size_t replay_shards = 1;     ///< Traced run: shards replayed per cycle.
  bool raw_log = false;         ///< Input is query-log text, not events.
};

struct Workload {
  WorkloadSpec spec;
  int64_t first_bin = 0;  ///< Absolute bin index (epoch / interval) of bins[0].
  std::vector<BinInput> bins;  ///< warmup_bins + measured_cycles bins.
  /// realized[k][t]: true arrivals of generator template t in bin k, for
  /// k = 0 .. bins.size() (the extra row is the last forecast's target).
  std::vector<std::vector<double>> realized;
  uint64_t digest = 0;     ///< FNV-1a over every offered event / log byte.
  uint64_t offered_units = 0;  ///< Events (or log lines) across all bins.
};

/// Builds workload `name` for `seed`; `seconds` sets the measured length.
/// Returns false (with *error set) for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* out, std::string* error);

}  // namespace perfbench
