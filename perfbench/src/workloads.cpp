#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>

namespace perfbench {

namespace serve = dbaugur::serve;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

namespace {
double ToUnit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }
uint64_t HashOf(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  return Mix(Mix(Mix(Mix(seed) ^ a) ^ b) ^ c);
}
}  // namespace

double UnitOf(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  return ToUnit(HashOf(seed, a, b, c));
}

uint64_t Stream::Next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return Mix(state_);
}
double Stream::Uniform() { return ToUnit(Next()); }
uint64_t Stream::Below(uint64_t n) { return Next() % n; }
double Stream::Normal() {
  double u1 = std::max(Uniform(), 1e-300);
  double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}
int64_t Stream::Poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  // Inversion; rates here stay far below the range where it loses accuracy.
  double u = Uniform();
  double p = std::exp(-lambda), cdf = p;
  int64_t k = 0;
  while (u > cdf && k < 10000) {
    ++k;
    p *= lambda / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

namespace {

constexpr int64_t kInterval = 600;
/// Each workload's structure (family shapes, template scales, shifts and
/// base rates) comes from this fixed seed, so every --seed asks for the same
/// kind and amount of work. --seed draws the rest: noise, arrivals, step
/// levels, lateness, duplicates, timestamps and literals.
constexpr uint64_t kShapeSeed = 0;
/// 2023-01-06 00:00:00 UTC, a Friday, so a four-day log spans a weekend.
constexpr int64_t kFirstBin = 1672963200 / kInterval;

class Digest {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
  }
  void Event(const serve::TraceEvent& e) {
    Bytes(&e.template_id, sizeof(e.template_id));
    Bytes(&e.timestamp, sizeof(e.timestamp));
    Bytes(&e.count, sizeof(e.count));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

size_t CyclesFor(double seconds, double nominal_cycle_s) {
  return std::max<size_t>(3, static_cast<size_t>(seconds / nominal_cycle_s));
}

/// Small models: the defaults the serving benches use for scale runs.
void SmallModels(dbaugur::core::DBAugurOptions* p) {
  p->top_k = 4;
  p->forecaster.window = 6;
  p->forecaster.horizon = 1;
  p->forecaster.epochs = 2;
  p->forecaster.batch_size = 16;
}

/// A family's base rate shape: two sinusoids with family-specific periods
/// and phases, always positive.
struct FamilyShape {
  double p1, phi1, p2, phi2;
  double At(double x) const {
    return 1.0 + 0.6 * std::sin(2.0 * std::numbers::pi * x / p1 + phi1) +
           0.3 * std::sin(2.0 * std::numbers::pi * x / p2 + phi2);
  }
};

FamilyShape MakeShape(uint64_t seed, uint64_t family, double p1_lo,
                      double p1_hi) {
  FamilyShape s;
  s.p1 = p1_lo + (p1_hi - p1_lo) * UnitOf(seed, 11, family);
  s.phi1 = 2.0 * std::numbers::pi * UnitOf(seed, 12, family);
  s.p2 = 2.5 + 1.5 * UnitOf(seed, 13, family);
  s.phi2 = 2.0 * std::numbers::pi * UnitOf(seed, 14, family);
  return s;
}

// ---------------------------------------------------------------------------
// diverse-scale: tens of thousands of templates on one shard. Half belong to
// Zipf-weighted pattern families (shared shape, per-template shift within
// the DTW band, scale and noise); the rest are unique low-volume four-level
// step shapes. Descender's all-pairs sweep dominates each cycle.
// ---------------------------------------------------------------------------
constexpr size_t kDsTemplates = 20000;
constexpr size_t kDsFamilies = 100;
constexpr size_t kDsFamilyMembers = 100;  // kDsFamilies * members = half
constexpr double kDsZipf = 1.8;

void BuildDiverseScale(uint64_t seed, double seconds, Workload* w) {
  WorkloadSpec& s = w->spec;
  s.templates = kDsTemplates;
  s.warmup_bins = 12;
  s.measured_cycles = CyclesFor(seconds, 1.25);
  s.readers = 1;
  s.replay_shards = 1;
  s.service.shard_count = 1;
  s.service.retrain_workers = 1;
  serve::ServeOptions& o = s.service.shard;
  SmallModels(&o.pipeline);
  o.pipeline.clustering.radius = 0.5;
  o.pipeline.clustering.dtw.window = 1;
  o.max_templates = kDsTemplates;
  o.queue_capacity = kDsTemplates * (s.warmup_bins + 2);

  std::vector<FamilyShape> shapes;
  for (size_t f = 0; f < kDsFamilies; ++f) shapes.push_back(MakeShape(kShapeSeed, f, 5, 10));
  size_t total_bins = s.warmup_bins + s.measured_cycles;
  w->realized.assign(total_bins + 1, std::vector<double>(kDsTemplates, 0.0));
  for (size_t k = 0; k <= total_bins; ++k) {
    for (uint32_t t = 0; t < kDsTemplates; ++t) {
      double v;
      size_t family = t / kDsFamilyMembers;
      if (family < kDsFamilies) {
        double level = 400.0 / std::pow(static_cast<double>(family + 1), kDsZipf);
        double scale = 0.5 + UnitOf(kShapeSeed, 21, t);
        double shift = std::floor(2.0 * UnitOf(kShapeSeed, 22, t));  // 0 or 1 bin
        Stream noise(HashOf(seed, 23, t, k));
        double x = static_cast<double>(k) - shift;
        v = std::round(std::max(
            0.0, level * scale * shapes[family].At(x) * (1.0 + 0.02 * noise.Normal())));
      } else {
        v = 1.0 + static_cast<double>(HashOf(seed, 24, t, k) & 3);
      }
      w->realized[k][t] = v;
    }
  }
  w->bins.resize(total_bins);
  for (size_t k = 0; k < total_bins; ++k) {
    int64_t bin_start = (kFirstBin + static_cast<int64_t>(k)) * kInterval;
    for (uint32_t t = 0; t < kDsTemplates; ++t) {
      double v = w->realized[k][t];
      if (v <= 0.0) continue;
      // Pre-aggregated source: one event per template and bin.
      w->bins[k].events.push_back({t, bin_start + 60 + static_cast<int64_t>(t % 480), v});
    }
  }
}

// ---------------------------------------------------------------------------
// paper-ensemble: a raw query log over a BusTracker-like transit schema.
// Literals and IN-list lengths churn from line to line; each template's
// arrival rate follows one of five diurnal/weekly shapes, so the templates
// group into a few clusters. Four days at the 10-minute interval.
// ---------------------------------------------------------------------------

/// Statement shapes. '#' is an integer literal, '%' a decimal literal, '$' a
/// quoted string and '@' an IN list of one to eight integers.
const char* const kTransitStatements[] = {
    "SELECT * FROM stops WHERE stop_id = #",
    "SELECT name, lat, lon FROM stops WHERE route_id = #",
    "SELECT * FROM routes WHERE agency_id = # AND active = 1",
    "SELECT route_id, short_name FROM routes WHERE route_id IN (@)",
    "SELECT * FROM trips WHERE route_id = # AND service_day = $",
    "SELECT trip_id, headsign FROM trips WHERE trip_id IN (@)",
    "SELECT arrival_time FROM stop_times WHERE trip_id = # AND stop_id = #",
    "SELECT * FROM stop_times WHERE stop_id = # AND arrival_time > #",
    "SELECT vehicle_id, lat, lon FROM vehicle_positions WHERE route_id = #",
    "SELECT * FROM vehicle_positions WHERE vehicle_id IN (@) AND ts > #",
    "INSERT INTO vehicle_positions (vehicle_id, lat, lon, ts) VALUES (#, %, %, #)",
    "UPDATE vehicles SET last_seen = # WHERE vehicle_id = #",
    "SELECT * FROM vehicles WHERE vehicle_id = #",
    "SELECT predicted_time FROM arrival_predictions WHERE stop_id = # AND route_id = #",
    "INSERT INTO arrival_predictions (stop_id, route_id, predicted_time) VALUES (#, #, #)",
    "DELETE FROM arrival_predictions WHERE predicted_time < #",
    "SELECT * FROM users WHERE user_id = #",
    "SELECT user_id FROM users WHERE email = $",
    "UPDATE users SET last_login = # WHERE user_id = #",
    "SELECT stop_id FROM favorites WHERE user_id = #",
    "INSERT INTO favorites (user_id, stop_id) VALUES (#, #)",
    "DELETE FROM favorites WHERE user_id = # AND stop_id = #",
    "SELECT * FROM alerts WHERE route_id IN (@) AND active = 1",
    "INSERT INTO alerts (route_id, message, created) VALUES (#, $, #)",
    "UPDATE alerts SET active = 0 WHERE alert_id = #",
    "SELECT fare FROM fares WHERE origin_zone = # AND dest_zone = #",
    "SELECT * FROM agencies WHERE agency_id = #",
    "SELECT stop_id, name FROM stops WHERE name = $",
    "SELECT * FROM shapes WHERE shape_id = # ORDER BY seq",
    "SELECT * FROM calendar WHERE service_id = $",
    "SELECT trip_id FROM stop_times WHERE stop_id IN (@) AND arrival_time > # AND arrival_time < #",
    "SELECT * FROM transfers WHERE from_stop = # AND to_stop = #",
    "INSERT INTO trip_updates (trip_id, delay, ts) VALUES (#, #, #)",
    "SELECT delay FROM trip_updates WHERE trip_id = # ORDER BY ts DESC LIMIT 1",
    "SELECT * FROM ridership WHERE route_id = # AND day = $",
    "INSERT INTO ridership (route_id, day, boardings) VALUES (#, $, #)",
    "SELECT s.name, t.arrival_time FROM stops s JOIN stop_times t ON s.stop_id = t.stop_id WHERE t.trip_id = #",
    "SELECT r.short_name, v.lat FROM routes r JOIN vehicle_positions v ON r.route_id = v.route_id WHERE r.route_id = #",
    "UPDATE stop_times SET departure_time = # WHERE trip_id = # AND stop_id = #",
    "SELECT * FROM service_log WHERE created > # AND severity = #",
};
constexpr size_t kPeTemplates = std::size(kTransitStatements);
constexpr size_t kPeDays = 4;
constexpr size_t kPeGroups = 5;
/// The last statements are sporadic (maintenance and admin traffic): low
/// rates around a template-specific hour, so they stay singleton clusters
/// outside the top-K.
constexpr size_t kPeSporadic = 8;

std::string RenderStatement(const char* shape, Stream* rng) {
  std::string out;
  char buf[48];
  for (const char* c = shape; *c != '\0'; ++c) {
    switch (*c) {
      case '#':
        out += std::to_string(1 + rng->Below(5000));
        break;
      case '%':
        std::snprintf(buf, sizeof(buf), "%.5f", 40.0 + rng->Uniform());
        out += buf;
        break;
      case '$':
        out += "'v" + std::to_string(rng->Below(100000)) + "'";
        break;
      case '@': {
        uint64_t n = 1 + rng->Below(8);
        for (uint64_t i = 0; i < n; ++i) {
          if (i > 0) out += ", ";
          out += std::to_string(1 + rng->Below(5000));
        }
        break;
      }
      default:
        out += *c;
    }
  }
  return out;
}

/// Relative rate of shape group g at absolute time `secs`.
double GroupRate(size_t g, int64_t secs) {
  double day = static_cast<double>(secs % 86400) / 86400.0;
  int64_t dow = (secs / 86400 + 4) % 7;  // 1970-01-01 was a Thursday; 0 = Sunday
  bool weekend = dow == 0 || dow == 6;
  auto bump = [](double x, double mu, double sigma) {
    double z = (x - mu) / sigma;
    return std::exp(-z * z);
  };
  switch (g) {
    case 0:  // commute: morning and evening peaks, quiet weekends
      return (0.1 + bump(day, 0.33, 0.05) + 0.8 * bump(day, 0.72, 0.06)) *
             (weekend ? 0.3 : 1.0);
    case 1:  // daytime plateau
      return (0.1 + 0.9 * bump(day, 0.58, 0.18)) * (weekend ? 0.8 : 1.0);
    case 2:  // nightly batch jobs, every day
      return 0.05 + 1.5 * bump(day, 0.12, 0.03);
    case 3:  // evening leisure, busier at weekends
      return (0.1 + bump(day, 0.85, 0.07)) * (weekend ? 1.4 : 1.0);
    default:  // midday
      return (0.2 + bump(day, 0.52, 0.08)) * (weekend ? 0.6 : 1.0);
  }
}

/// Relative rate of a sporadic template whose activity centres on `hour`.
double SporadicRate(double hour, int64_t secs) {
  double day = static_cast<double>(secs % 86400) / 86400.0;
  double z = (day - hour / 24.0) / 0.02;
  return 0.05 + 0.6 * std::exp(-z * z);
}

void BuildPaperEnsemble(uint64_t seed, double seconds, Workload* w) {
  // The log starts at 10:00, so the measured bins fall in the busy daytime
  // hours four days later.
  w->first_bin = kFirstBin + 60;
  WorkloadSpec& s = w->spec;
  s.templates = kPeTemplates;
  s.warmup_bins = kPeDays * 144;
  s.measured_cycles = CyclesFor(seconds, 1.25);
  s.readers = 1;
  s.replay_shards = 1;
  s.raw_log = true;
  s.service.shard_count = 1;
  s.service.retrain_workers = 1;
  serve::ServeOptions& o = s.service.shard;
  o.pipeline.top_k = 5;
  o.pipeline.forecaster.window = 30;
  o.pipeline.forecaster.horizon = 1;
  o.pipeline.forecaster.epochs = 3;
  o.pipeline.forecaster.batch_size = 32;
  o.pipeline.clustering.radius = 14.0;
  o.max_templates = 64;

  size_t total_bins = s.warmup_bins + s.measured_cycles;
  w->realized.assign(total_bins + 1, std::vector<double>(kPeTemplates, 0.0));
  std::vector<double> base(kPeTemplates);
  std::vector<int64_t> shift(kPeTemplates);
  std::vector<double> hour(kPeTemplates);
  for (size_t t = 0; t < kPeTemplates; ++t) {
    // A busy measured bin carries a few hundred lines, so the producer's
    // parse-and-template rate is timed over about twenty chunks per bin.
    double u = UnitOf(kShapeSeed, 31, t);
    base[t] = 12.0 + 90.0 * u * u;
    shift[t] = static_cast<int64_t>(3.0 * UnitOf(kShapeSeed, 32, t));
    hour[t] = 24.0 * UnitOf(kShapeSeed, 35, t);
  }
  for (size_t k = 0; k <= total_bins; ++k) {
    for (size_t t = 0; t < kPeTemplates; ++t) {
      int64_t secs = (w->first_bin + static_cast<int64_t>(k) - shift[t]) * kInterval;
      Stream rng(HashOf(seed, 33, t, k));
      double rate = t < kPeTemplates - kPeSporadic
                        ? base[t] * GroupRate(t % kPeGroups, secs)
                        : SporadicRate(hour[t], secs);
      w->realized[k][t] = static_cast<double>(rng.Poisson(rate));
    }
  }
  size_t max_lines = 0;
  for (size_t k = 0; k < total_bins; ++k) {
    size_t n = 0;
    for (size_t t = 0; t < kPeTemplates; ++t) n += static_cast<size_t>(w->realized[k][t]);
    max_lines = std::max(max_lines, n);
  }
  o.queue_capacity = max_lines * (s.warmup_bins + 2);

  w->bins.resize(total_bins);
  struct Line {
    int64_t ts;
    uint32_t t;
    std::string sql;
  };
  for (size_t k = 0; k < total_bins; ++k) {
    int64_t bin_start = (w->first_bin + static_cast<int64_t>(k)) * kInterval;
    std::vector<Line> lines;
    for (uint32_t t = 0; t < kPeTemplates; ++t) {
      Stream rng(HashOf(seed, 34, t, k));
      for (int64_t i = 0; i < static_cast<int64_t>(w->realized[k][t]); ++i) {
        int64_t ts = bin_start + static_cast<int64_t>(rng.Below(kInterval));
        lines.push_back({ts, t, RenderStatement(kTransitStatements[t], &rng)});
      }
    }
    std::stable_sort(lines.begin(), lines.end(),
                     [](const Line& a, const Line& b) { return a.ts < b.ts; });
    BinInput& in = w->bins[k];
    for (const Line& l : lines) {
      in.log += std::to_string(l.ts) + " " + l.sql + "\n";
      in.line_template.push_back(l.t);
    }
  }
}

// ---------------------------------------------------------------------------
// steady-stream: a few thousand clusterable templates over many shards,
// arriving as single-query events. A small seeded share arrives late (one or
// two bins, well inside the lateness bound) or twice. Bins fall due on a
// fixed wall-clock schedule.
// ---------------------------------------------------------------------------
constexpr size_t kSsTemplates = 3000;
constexpr size_t kSsFamilies = 30;
constexpr double kSsLate = 0.02;       // share offered one bin late
constexpr double kSsVeryLate = 0.005;  // of which offered two bins late
constexpr double kSsDuplicate = 0.005; // share offered twice

void BuildSteadyStream(uint64_t seed, double seconds, Workload* w) {
  WorkloadSpec& s = w->spec;
  s.templates = kSsTemplates;
  s.warmup_bins = 72;
  s.bin_period_s = 0.5;
  s.measured_cycles = std::max<size_t>(3, static_cast<size_t>(seconds / s.bin_period_s));
  s.readers = 2;
  s.replay_shards = 2;
  s.service.shard_count = 8;
  s.service.retrain_workers = 2;
  serve::ServeOptions& o = s.service.shard;
  SmallModels(&o.pipeline);
  o.pipeline.clustering.radius = 3.0;
  o.pipeline.clustering.dtw.window = 2;
  o.max_templates = kSsTemplates;

  std::vector<FamilyShape> shapes;
  for (size_t f = 0; f < kSsFamilies; ++f) shapes.push_back(MakeShape(kShapeSeed, f, 10, 20));
  size_t total_bins = s.warmup_bins + s.measured_cycles;
  w->realized.assign(total_bins + 1, std::vector<double>(kSsTemplates, 0.0));
  for (size_t k = 0; k <= total_bins; ++k) {
    for (uint32_t t = 0; t < kSsTemplates; ++t) {
      size_t family = t % kSsFamilies;
      double level = 15.0 / std::pow(static_cast<double>(family + 1), 0.7);
      double scale = 0.6 + 0.8 * UnitOf(kShapeSeed, 41, t);
      double shift = std::floor(2.0 * UnitOf(kShapeSeed, 42, t));
      Stream noise(HashOf(seed, 43, t, k));
      double x = static_cast<double>(k) - shift;
      w->realized[k][t] = std::round(std::max(
          0.0, level * scale * shapes[family].At(x) * (1.0 + 0.05 * noise.Normal())));
    }
  }
  w->bins.resize(total_bins);
  std::vector<std::vector<serve::TraceEvent>> deferred(total_bins + 2);
  size_t max_bin_events = 0;
  for (size_t k = 0; k < total_bins; ++k) {
    int64_t bin_start = (kFirstBin + static_cast<int64_t>(k)) * kInterval;
    std::vector<serve::TraceEvent> on_time;
    for (uint32_t t = 0; t < kSsTemplates; ++t) {
      Stream rng(HashOf(seed, 44, t, k));
      for (int64_t i = 0; i < static_cast<int64_t>(w->realized[k][t]); ++i) {
        serve::TraceEvent e{t, bin_start + static_cast<int64_t>(rng.Below(kInterval)), 1.0};
        double u = rng.Uniform();
        if (u < kSsVeryLate) {
          deferred[k + 2].push_back(e);
        } else if (u < kSsLate) {
          deferred[k + 1].push_back(e);
        } else {
          on_time.push_back(e);
          if (u < kSsLate + kSsDuplicate) on_time.push_back(e);
        }
      }
    }
    std::stable_sort(on_time.begin(), on_time.end(),
                     [](const serve::TraceEvent& a, const serve::TraceEvent& b) {
                       return a.timestamp < b.timestamp;
                     });
    std::vector<serve::TraceEvent>& out = w->bins[k].events;
    out = std::move(on_time);
    // Late arrivals trail the bin's own events, as a shipper retrying a
    // backlog would deliver them.
    out.insert(out.end(), deferred[k].begin(), deferred[k].end());
    max_bin_events = std::max(max_bin_events, out.size());
  }
  o.queue_capacity = max_bin_events * (s.warmup_bins + 2);
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  Workload* out, std::string* error) {
  *out = Workload();
  out->spec.name = name;
  out->first_bin = kFirstBin;  // the Build functions may move it
  if (name == "diverse-scale") {
    BuildDiverseScale(seed, seconds, out);
  } else if (name == "paper-ensemble") {
    BuildPaperEnsemble(seed, seconds, out);
  } else if (name == "steady-stream") {
    BuildSteadyStream(seed, seconds, out);
  } else {
    *error = "unknown workload '" + name + "'";
    return false;
  }
  out->spec.service.shard.bin_interval_seconds = kInterval;
  Digest d;
  for (const BinInput& b : out->bins) {
    for (const serve::TraceEvent& e : b.events) d.Event(e);
    d.Bytes(b.log.data(), b.log.size());
    out->offered_units += b.events.size() + b.line_template.size();
  }
  out->digest = d.value();
  return true;
}

}  // namespace perfbench
