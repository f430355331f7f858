#include "common/fault_injection.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbaugur::fault {

namespace {

/// One installed schedule. `kind` selects which fields apply.
struct Schedule {
  enum class Kind { kFirstN, kAtIndices, kProbabilistic };
  Kind kind = Kind::kFirstN;
  uint64_t first_n = 0;             // kFirstN
  std::set<uint64_t> at;            // kAtIndices
  double probability = 0.0;         // kProbabilistic
  std::mt19937_64 rng{42};          // kProbabilistic (deterministic per site)
  SiteStats stats;
};

struct Registry {
  Mutex mu;
  // Scheduled sites plus bare counters for sites hit while active.
  std::map<std::string, Schedule> sites DBAUGUR_GUARDED_BY(mu);
  bool has_schedule DBAUGUR_GUARDED_BY(mu) = false;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();  // leaked: usable during shutdown
  return *r;
}

// Parses "kind:args" into *out. Returns false on malformed input.
bool ParseSchedule(const std::string& body, Schedule* out) {
  size_t colon = body.find(':');
  if (colon == std::string::npos) return false;
  std::string kind = body.substr(0, colon);
  std::string args = body.substr(colon + 1);
  if (args.empty()) return false;
  try {
    if (kind == "n") {
      out->kind = Schedule::Kind::kFirstN;
      size_t used = 0;
      out->first_n = std::stoull(args, &used);
      return used == args.size();
    }
    if (kind == "at") {
      out->kind = Schedule::Kind::kAtIndices;
      size_t pos = 0;
      while (pos < args.size()) {
        size_t comma = args.find(',', pos);
        std::string tok = args.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        size_t used = 0;
        out->at.insert(std::stoull(tok, &used));
        if (used != tok.size()) return false;
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      return !out->at.empty();
    }
    if (kind == "p") {
      out->kind = Schedule::Kind::kProbabilistic;
      uint64_t seed = 42;
      size_t used = 0;
      size_t colon2 = args.find(':');
      std::string prob = args.substr(0, colon2);
      out->probability = std::stod(prob, &used);
      if (used != prob.size()) return false;
      if (out->probability < 0.0 || out->probability > 1.0) return false;
      if (colon2 != std::string::npos) {
        std::string seed_str = args.substr(colon2 + 1);
        seed = std::stoull(seed_str, &used);
        if (used != seed_str.size()) return false;
      }
      out->rng.seed(seed);
      return true;
    }
  } catch (...) {  // std::stoull/stod reject non-numeric or overflow input
    return false;
  }
  return false;
}

// Applies DBAUGUR_FAULT_SPEC once at process start so any binary (tests,
// benches, chaos runs) can enable sites without code changes. Errors go to
// stderr directly: logging may not be constructed yet during static init.
struct EnvInit {
  EnvInit() {
    // getenv is single-threaded-safe here: this runs during static init,
    // before main() can spawn threads or call setenv.
    const char* spec = std::getenv("DBAUGUR_FAULT_SPEC");  // NOLINT(concurrency-mt-unsafe)
    if (spec == nullptr || *spec == '\0') return;
    Status st = Configure(spec);
    if (!st.ok()) {
      std::fprintf(stderr, "dbaugur: ignoring bad DBAUGUR_FAULT_SPEC: %s\n",
                   st.ToString().c_str());
    }
  }
};
// Reading the env var must happen at static-init time by design; the ctor's
// only throw path is bad_alloc on the spec strings, where terminating is fine.
const EnvInit g_env_init;  // NOLINT(cert-err58-cpp)

}  // namespace

namespace internal {

std::atomic<bool> g_active{false};

bool Hit(const char* site) {
  Registry& reg = GetRegistry();
  MutexLock lock(&reg.mu);
  Schedule& s = reg.sites[site];  // creates a bare counter for unknown sites
  uint64_t index = s.stats.hits++;
  bool fire = false;
  switch (s.kind) {
    case Schedule::Kind::kFirstN:
      fire = index < s.first_n;
      break;
    case Schedule::Kind::kAtIndices:
      fire = s.at.count(index) != 0;
      break;
    case Schedule::Kind::kProbabilistic:
      fire = s.probability > 0.0 &&
             std::uniform_real_distribution<double>(0.0, 1.0)(s.rng) <
                 s.probability;
      break;
  }
  if (fire) ++s.stats.fires;
  return fire;
}

}  // namespace internal

Status Configure(const std::string& spec) {
  std::map<std::string, Schedule> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t semi = spec.find(';', pos);
    std::string entry = spec.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    if (!entry.empty()) {
      size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::InvalidArgument("fault spec entry missing '=': " +
                                       entry);
      }
      Schedule s;
      if (!ParseSchedule(entry.substr(eq + 1), &s)) {
        return Status::InvalidArgument("bad fault schedule: " + entry);
      }
      parsed[entry.substr(0, eq)] = std::move(s);
    }
    if (semi == std::string::npos) break;
    pos = semi + 1;
  }
  Registry& reg = GetRegistry();
  MutexLock lock(&reg.mu);
  reg.sites = std::move(parsed);
  reg.has_schedule = !reg.sites.empty();
  internal::g_active.store(reg.has_schedule, std::memory_order_release);
  return Status::OK();
}

void Reset() {
  Registry& reg = GetRegistry();
  MutexLock lock(&reg.mu);
  reg.sites.clear();
  reg.has_schedule = false;
  internal::g_active.store(false, std::memory_order_release);
}

bool Active() {
  Registry& reg = GetRegistry();
  MutexLock lock(&reg.mu);
  return reg.has_schedule;
}

StatusOr<SiteStats> Stats(const std::string& site) {
  Registry& reg = GetRegistry();
  MutexLock lock(&reg.mu);
  auto it = reg.sites.find(site);
  if (it == reg.sites.end()) {
    return Status::NotFound("fault site never configured or hit: " + site);
  }
  return it->second.stats;
}

}  // namespace dbaugur::fault
