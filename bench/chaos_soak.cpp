// Chaos harness driver: deterministic repro, CI smoke, and open-ended soak.
//
// Three modes:
//   repro:  chaos_soak --seed=N --profile=P [--replay] [--shards=N] ...
//           Runs exactly the (seed, profile) a failing test or soak printed;
//           exits 1 with the full report if the failure reproduces.
//   smoke:  chaos_soak --smoke
//           A fixed mini-matrix across all four profiles plus single- and
//           multi-shard service runs and one replay run, with a wall-clock
//           budget so CI notices when the harness gets slow. JSON summary
//           on stdout.
//   soak:   chaos_soak --soak [--seconds=S] [--start-seed=N]
//           Randomized open-ended mode: sweeps fresh seeds (wall-clock
//           derived unless pinned) round-robin over the profiles, mixing in
//           service and replay legs, until the time budget runs out. On
//           failure it prints the repro + a ready-to-paste corpus line,
//           writes soak_failure.txt, and exits 1.
//
// A DBAUGUR_FAULT_SPEC in the environment arms the same fault storms the
// tests use; the harness then checks conservation/invariant oracles instead
// of exact differential equality.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "chaos/harness.h"

namespace dbaugur::bench {
namespace {

// Throughput regression net (ROADMAP: "the harness doubles as a perf
// regression net"): --smoke fails when measured events/s collapses more than
// 30% below this stored floor. The floor is set well under the reference
// single-core rate with vector dispatch active, so machine-to-machine noise
// doesn't trip it but an order-of-magnitude kernel regression does.
// Sanitizer builds skip the check (instrumentation overhead is not a
// regression); DBAUGUR_CHAOS_FLOOR=<events/s> overrides it (0 disables).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DBAUGUR_CHAOS_SANITIZED 1
#endif
#if !defined(DBAUGUR_CHAOS_SANITIZED) && defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DBAUGUR_CHAOS_SANITIZED 1
#endif
#endif

double SmokeEventsPerSecFloor() {
#if defined(DBAUGUR_CHAOS_SANITIZED)
  double floor = 0.0;
#else
  double floor = 20000.0;
#endif
  if (const char* env = std::getenv("DBAUGUR_CHAOS_FLOOR")) {
    floor = std::strtod(env, nullptr);
  }
  return floor;
}

using chaos::ChaosOptions;
using chaos::ChaosReport;
using chaos::StreamProfile;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ChaosOptions MatrixOptions(uint64_t seed, StreamProfile profile) {
  ChaosOptions o;
  o.stream.seed = seed;
  o.stream.profile = profile;
  o.stream.bins = 36;
  o.stream.templates = 6;
  o.stream.mean_rate = 2.5;
  return o;
}

std::string CorpusLine(const ChaosOptions& o) {
  std::string line = std::to_string(o.stream.seed);
  line += " ";
  line += chaos::ProfileName(o.stream.profile);
  if (o.replay) line += " replay";
  if (o.service_shards > 0) {
    line += " shards=" + std::to_string(o.service_shards);
  }
  if (o.service_workers > 1) {
    line += " workers=" + std::to_string(o.service_workers);
  }
  if (o.retrain_deadline_seconds > 0.0) {
    line += " deadline=" + std::to_string(o.retrain_deadline_seconds);
  }
  if (o.retrain_budget > 0) {
    line += " budget=" + std::to_string(o.retrain_budget);
  }
  return line;
}

/// Runs one configuration; on failure prints the report and the corpus line.
/// Accumulates the run's parsed-event count into *events_out when given, so
/// the smoke/soak modes can report throughput.
bool RunOne(const ChaosOptions& opts, uint64_t* events_out = nullptr) {
  const ChaosReport report = chaos::RunChaos(opts);
  if (events_out != nullptr) *events_out += report.events;
  if (report.ok) return true;
  std::fprintf(stderr, "%s\n", report.Summary().c_str());
  std::fprintf(stderr, "corpus line: %s\n", CorpusLine(opts).c_str());
  return false;
}

int ReproMode(uint64_t seed, StreamProfile profile, bool replay,
              size_t shards, size_t workers, double deadline, size_t budget) {
  ChaosOptions o = MatrixOptions(seed, profile);
  o.replay = replay;
  o.service_shards = shards;
  o.service_workers = workers;
  o.retrain_deadline_seconds = deadline;
  o.retrain_budget = budget;
  const double t0 = NowSeconds();
  const bool ok = RunOne(o);
  std::printf("{\n");
  WriteSimdProvenance(stdout);
  std::printf(
      "  \"benchmark\": \"chaos_soak\",\n  \"mode\": \"repro\",\n"
      "  \"seed\": %" PRIu64 ",\n  \"profile\": \"%s\",\n  \"ok\": %s,\n"
      "  \"seconds\": %.3f\n}\n",
      seed, chaos::ProfileName(profile), ok ? "true" : "false",
      NowSeconds() - t0);
  if (ok) std::fprintf(stderr, "chaos ok (repro %s)\n", CorpusLine(o).c_str());
  return ok ? 0 : 1;
}

int SmokeMode() {
  // Budget is deliberately generous (CI machines vary); the point is to fail
  // loudly if the harness regresses from seconds to minutes.
  constexpr double kBudgetSeconds = 120.0;
  const double t0 = NowSeconds();
  int runs = 0;
  int failures = 0;
  uint64_t events = 0;
  for (StreamProfile p : chaos::AllProfiles()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      ++runs;
      if (!RunOne(MatrixOptions(seed, p), &events)) ++failures;
    }
  }
  {
    ChaosOptions o = MatrixOptions(42, StreamProfile::kSteady);
    o.stream.bins = 28;
    o.stream.templates = 4;
    o.service_shards = 1;
    ++runs;
    if (!RunOne(o, &events)) ++failures;
  }
  {
    ChaosOptions o = MatrixOptions(7, StreamProfile::kTemplateChurn);
    o.stream.bins = 24;
    o.replay = true;
    ++runs;
    if (!RunOne(o, &events)) ++failures;
  }
  {
    ChaosOptions o = MatrixOptions(17, StreamProfile::kSteady);
    o.service_shards = 3;
    ++runs;
    if (!RunOne(o, &events)) ++failures;
  }
  {
    // Concurrent retrain drain: 2 workers over 3 shards, a deadline wide
    // enough that only a genuine hang would pass it, and a unit
    // budget so most cycles fold shards they do not retrain.
    ChaosOptions o = MatrixOptions(23, StreamProfile::kBurstySkewed);
    o.service_shards = 3;
    o.service_workers = 2;
    o.retrain_deadline_seconds = 30.0;
    o.retrain_budget = 1;
    ++runs;
    if (!RunOne(o, &events)) ++failures;
  }
  const double seconds = NowSeconds() - t0;
  const bool over_budget = seconds > kBudgetSeconds;
  const double events_per_sec =
      seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0;
  const double floor = SmokeEventsPerSecFloor();
  // >30% collapse below the stored floor fails the smoke: the floor already
  // sits well under the reference rate, so tripping 0.7× of it means the
  // pipeline lost most of its throughput, not that the machine is slow.
  const bool under_floor = floor > 0.0 && events_per_sec < 0.7 * floor;
  std::printf("{\n");
  WriteSimdProvenance(stdout);
  std::printf(
      "  \"benchmark\": \"chaos_soak\",\n  \"mode\": \"smoke\",\n"
      "  \"runs\": %d,\n  \"failures\": %d,\n  \"events\": %" PRIu64 ",\n"
      "  \"events_per_sec\": %.1f,\n  \"events_per_sec_floor\": %.1f,\n"
      "  \"seconds\": %.3f,\n  \"budget_seconds\": %.1f\n}\n",
      runs, failures, events, events_per_sec, floor, seconds, kBudgetSeconds);
  std::fprintf(stderr,
               "chaos smoke: %d runs, %d failures, %.2fs, %.0f events/s\n",
               runs, failures, seconds, events_per_sec);
  if (over_budget) {
    std::fprintf(stderr,
                 "chaos_soak: smoke took %.1fs, budget %.1fs — the harness "
                 "got an order of magnitude slower\n",
                 seconds, kBudgetSeconds);
    return 1;
  }
  if (under_floor) {
    std::fprintf(stderr,
                 "chaos_soak: smoke throughput %.0f events/s is more than "
                 "30%% below the stored floor %.0f events/s — a perf "
                 "regression, not noise (override: DBAUGUR_CHAOS_FLOOR)\n",
                 events_per_sec, floor);
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

int SoakMode(double seconds, uint64_t start_seed, bool have_start_seed) {
  if (!have_start_seed) {
    // Fresh seeds every nightly run; print the start so any failure is
    // reproducible even if the repro line were lost.
    start_seed = static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    start_seed = start_seed * 0x9E3779B97F4A7C15ULL >> 16;
  }
  std::fprintf(stderr,
               "chaos soak: %.0fs budget, start seed %" PRIu64 "\n",
               seconds, start_seed);
  const double t0 = NowSeconds();
  const auto profiles = chaos::AllProfiles();
  uint64_t runs = 0;
  uint64_t events = 0;
  while (NowSeconds() - t0 < seconds) {
    ChaosOptions o =
        MatrixOptions(start_seed + runs, profiles[runs % profiles.size()]);
    // Mix the expensive legs in at a steady cadence.
    if (runs % 7 == 3) o.service_shards = 1;
    o.replay = runs % 11 == 5;
    if (runs % 5 == 2) o.service_shards = 2 + runs % 3;
    // Every other sharded run also exercises the concurrent drain path
    // (multiple workers, a generous deadline, a tight per-cycle budget).
    if (o.service_shards > 1 && runs % 10 == 7) {
      o.service_workers = 2;
      o.retrain_deadline_seconds = 30.0;
      o.retrain_budget = 1;
    }
    const double iter_t0 = NowSeconds();
    uint64_t iter_events = 0;
    if (!RunOne(o, &iter_events)) {
      const std::string line = CorpusLine(o);
      std::FILE* f = std::fopen("soak_failure.txt", "w");
      if (f != nullptr) {
        std::fprintf(f, "%s\n", line.c_str());
        std::fprintf(f, "%s\n", chaos::RunChaos(o).Summary().c_str());
        std::fclose(f);
      }
      std::printf("{\n");
      WriteSimdProvenance(stdout);
      std::printf(
          "  \"benchmark\": \"chaos_soak\",\n  \"mode\": \"soak\",\n"
          "  \"runs\": %" PRIu64 ",\n  \"failures\": 1,\n"
          "  \"failing_corpus_line\": \"%s\",\n  \"seconds\": %.3f\n}\n",
          runs + 1, line.c_str(), NowSeconds() - t0);
      return 1;
    }
    events += iter_events;
    const double iter_s = NowSeconds() - iter_t0;
    std::fprintf(stderr,
                 "soak run %" PRIu64 " (%s): %" PRIu64
                 " events, %.0f events/s\n",
                 runs, CorpusLine(o).c_str(), iter_events,
                 iter_s > 0.0 ? static_cast<double>(iter_events) / iter_s
                              : 0.0);
    ++runs;
  }
  const double total_s = NowSeconds() - t0;
  std::printf("{\n");
  WriteSimdProvenance(stdout);
  std::printf(
      "  \"benchmark\": \"chaos_soak\",\n  \"mode\": \"soak\",\n"
      "  \"runs\": %" PRIu64 ",\n  \"failures\": 0,\n  \"start_seed\": "
      "%" PRIu64 ",\n  \"events\": %" PRIu64 ",\n"
      "  \"events_per_sec\": %.1f,\n  \"seconds\": %.3f\n}\n",
      runs, start_seed, events,
      total_s > 0.0 ? static_cast<double>(events) / total_s : 0.0, total_s);
  std::fprintf(stderr,
               "chaos soak: %" PRIu64 " runs clean in %.1fs, %.0f events/s\n",
               runs, total_s,
               total_s > 0.0 ? static_cast<double>(events) / total_s : 0.0);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: chaos_soak --seed=N --profile=P [--replay] "
               "[--shards=N] [--workers=N] [--deadline=S] [--budget=N]\n"
               "       chaos_soak --smoke\n"
               "       chaos_soak --soak [--seconds=S] [--start-seed=N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool soak = false;
  bool replay = false;
  bool have_seed = false;
  bool have_start_seed = false;
  uint64_t seed = 0;
  uint64_t start_seed = 0;
  size_t shards = 0;
  size_t workers = 1;
  double deadline = 0.0;
  size_t budget = 0;
  double seconds = 60.0;
  StreamProfile profile = StreamProfile::kSteady;
  bool have_profile = false;

  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(a, "--soak") == 0) {
      soak = true;
    } else if (std::strcmp(a, "--replay") == 0) {
      replay = true;
    } else if (std::strncmp(a, "--shards=", 9) == 0) {
      shards = static_cast<size_t>(std::strtoull(a + 9, nullptr, 10));
      if (shards < 1) return Usage();
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      workers = static_cast<size_t>(std::strtoull(a + 10, nullptr, 10));
      if (workers < 1) return Usage();
    } else if (std::strncmp(a, "--deadline=", 11) == 0) {
      deadline = std::strtod(a + 11, nullptr);
    } else if (std::strncmp(a, "--budget=", 9) == 0) {
      budget = static_cast<size_t>(std::strtoull(a + 9, nullptr, 10));
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      seed = std::strtoull(a + 7, nullptr, 10);
      have_seed = true;
    } else if (std::strncmp(a, "--start-seed=", 13) == 0) {
      start_seed = std::strtoull(a + 13, nullptr, 10);
      have_start_seed = true;
    } else if (std::strncmp(a, "--seconds=", 10) == 0) {
      seconds = std::strtod(a + 10, nullptr);
    } else if (std::strncmp(a, "--profile=", 10) == 0) {
      auto parsed = chaos::ParseProfile(a + 10);
      if (!parsed.ok()) {
        std::fprintf(stderr, "chaos_soak: %s\n",
                     parsed.status().message().c_str());
        return 2;
      }
      profile = *parsed;
      have_profile = true;
    } else {
      return Usage();
    }
  }

  if (smoke) return SmokeMode();
  if (soak) return SoakMode(seconds, start_seed, have_start_seed);
  if (have_seed && have_profile) {
    return ReproMode(seed, profile, replay, shards, workers, deadline,
                     budget);
  }
  return Usage();
}

}  // namespace
}  // namespace dbaugur::bench

int main(int argc, char** argv) { return dbaugur::bench::Main(argc, argv); }
