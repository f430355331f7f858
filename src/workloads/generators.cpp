#include "workloads/generators.h"

#include <cmath>

#include "common/math_utils.h"
#include "common/rng.h"

namespace dbaugur::workloads {

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
constexpr int64_t kSecondsPerDay = 86400;
}  // namespace

ts::Series GenerateBusTracker(const BusTrackerOptions& opts) {
  // Mean off-peak queries per interval.
  constexpr double kBaseRate = 60.0;
  constexpr double kDailyAmplitude = 2.0;    // Peak-hour multiplier over base.
  constexpr double kWeekendFactor = 0.55;    // Traffic scaling on Sat/Sun.
  constexpr double kBurstRatePerDay = 3.0;   // Expected crests/troughs per day.
  constexpr double kBurstMagnitude = 2.5;    // Multiplier during a crest.
  constexpr double kTroughMagnitude = 0.25;  // Multiplier during a trough.
  Rng rng(opts.seed);
  size_t steps_per_day =
      static_cast<size_t>(kSecondsPerDay / opts.interval_seconds);
  size_t n = opts.days * steps_per_day;
  std::vector<double> v(n, 0.0);

  // Pre-draw burst windows: each is (start, length, multiplier).
  struct Burst {
    size_t start, len;
    double mult;
  };
  std::vector<Burst> bursts;
  double expected = kBurstRatePerDay * static_cast<double>(opts.days);
  int64_t burst_count = rng.Poisson(expected);
  for (int64_t b = 0; b < burst_count; ++b) {
    size_t start = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    size_t len = static_cast<size_t>(rng.UniformInt(5, 45));
    bool crest = rng.Bernoulli(0.6);
    double mult = crest ? kBurstMagnitude * rng.Uniform(0.8, 1.3)
                        : kTroughMagnitude * rng.Uniform(0.6, 1.4);
    bursts.push_back({start, len, mult});
  }

  for (size_t i = 0; i < n; ++i) {
    double day_frac =
        static_cast<double>(i % steps_per_day) / static_cast<double>(steps_per_day);
    size_t day = i / steps_per_day;
    // Two ridership peaks (morning/evening commute) on top of a daily cycle.
    double diurnal = 0.35 + 0.65 * std::max(0.0, std::sin(kTwoPi * (day_frac - 0.25)));
    double commute = 0.5 * std::exp(-std::pow((day_frac - 0.33) / 0.05, 2)) +
                     0.6 * std::exp(-std::pow((day_frac - 0.71) / 0.06, 2));
    double weekday = (day % 7 >= 5) ? kWeekendFactor : 1.0;
    double rate = kBaseRate * (1.0 + kDailyAmplitude * (diurnal + commute)) *
                  weekday;
    for (const Burst& b : bursts) {
      if (i >= b.start && i < b.start + b.len) rate *= b.mult;
    }
    v[i] = static_cast<double>(rng.Poisson(rate));
  }
  return ts::Series(0, opts.interval_seconds, std::move(v), "bustracker");
}

ts::Series GenerateAlibabaDisk(const AlibabaOptions& opts) {
  constexpr double kBaseUtilization = 0.45;
  constexpr double kLongPeriodHours = 57.0;  // Longer, less-obvious cycle.
  constexpr double kLongAmplitude = 0.08;
  // AR(1) coefficient of the local drift (closer to 1 => better local
  // linearity).
  constexpr double kDriftSmoothness = 0.97;
  // Heavy bursts from complex queries.
  constexpr double kBurstRatePerDay = 10.0;
  constexpr double kBurstHeight = 0.3;
  Rng rng(opts.seed);
  size_t steps_per_day =
      static_cast<size_t>(kSecondsPerDay / opts.interval_seconds);
  size_t n = opts.days * steps_per_day;
  std::vector<double> v(n, 0.0);
  double period_steps =
      kLongPeriodHours * 3600.0 / static_cast<double>(opts.interval_seconds);

  // Smooth AR(1) drift gives the trace its good local linearity.
  double drift = 0.0;
  double drift_sd = 0.01 * std::sqrt(1.0 - kDriftSmoothness * kDriftSmoothness);

  // Burst events: sharp rises with exponential decay.
  std::vector<double> burst(n, 0.0);
  int64_t burst_count =
      rng.Poisson(kBurstRatePerDay * static_cast<double>(opts.days));
  for (int64_t b = 0; b < burst_count; ++b) {
    size_t start =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    double height = kBurstHeight * rng.Uniform(0.5, 1.5);
    double decay = rng.Uniform(0.75, 0.95);
    double h = height;
    for (size_t i = start; i < n && h > 0.005; ++i, h *= decay) {
      burst[i] += h;
    }
  }

  for (size_t i = 0; i < n; ++i) {
    drift = kDriftSmoothness * drift + rng.Gaussian(0.0, drift_sd);
    double cyc = kLongAmplitude *
                 std::sin(kTwoPi * static_cast<double>(i) / period_steps);
    double val = kBaseUtilization + cyc + drift + burst[i] +
                 rng.Gaussian(0.0, 0.004);
    v[i] = Clamp(val, 0.0, 1.0);
  }
  return ts::Series(0, opts.interval_seconds, std::move(v), "alibaba_disk");
}

ts::Series GeneratePeriodic(const PeriodicOptions& opts) {
  constexpr double kBase = 100.0;
  constexpr double kAmplitude = 60.0;
  Rng rng(opts.seed);
  size_t n = opts.periods * opts.steps_per_period;
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    double phase =
        kTwoPi * static_cast<double>(i) / static_cast<double>(opts.steps_per_period);
    v[i] = std::max(0.0, kBase + kAmplitude * std::sin(phase) +
                             rng.Gaussian(0.0, opts.noise_sd));
  }
  return ts::Series(0, 1800, std::move(v), "periodic");
}

ts::Series GenerateComplex(const ComplexOptions& opts) {
  constexpr double kBase = 100.0;
  constexpr double kTrendPerDay = 1.5;
  constexpr double kSeasonAmplitude = 40.0;
  constexpr double kWeekdayFactor = 1.25;  // Mon-Fri multiplier.
  constexpr double kHolidayFactor = 0.4;   // Traffic multiplier on holidays.
  Rng rng(opts.seed);
  size_t n = opts.days * opts.steps_per_day;
  // Holiday calendar drawn up front.
  std::vector<bool> holiday(opts.days, false);
  for (size_t d = 0; d < opts.days; ++d) holiday[d] = rng.Bernoulli(opts.holiday_prob);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    size_t day = i / opts.steps_per_day;
    double day_frac = static_cast<double>(i % opts.steps_per_day) /
                      static_cast<double>(opts.steps_per_day);
    double trend = kTrendPerDay * static_cast<double>(i) /
                   static_cast<double>(opts.steps_per_day);
    double season = kSeasonAmplitude * std::sin(kTwoPi * (day_frac - 0.3));
    double weekday = (day % 7 < 5) ? kWeekdayFactor : 1.0;
    double hol = holiday[day] ? kHolidayFactor : 1.0;
    double val = (kBase + trend + season) * weekday * hol +
                 rng.Gaussian(0.0, opts.noise_sd);
    v[i] = std::max(0.0, val);
  }
  return ts::Series(0, 1800, std::move(v), "complex");
}

std::vector<ts::Series> GenerateWarpedFamily(const WarpedFamilyOptions& opts) {
  constexpr size_t kLength = 96;
  constexpr double kPeriod = 32.0;
  Rng rng(opts.seed);
  std::vector<ts::Series> out;
  out.reserve(opts.members);
  for (size_t m = 0; m < opts.members; ++m) {
    double shift = rng.Uniform(-opts.max_shift, opts.max_shift);
    double amp = rng.Uniform(opts.amp_low, opts.amp_high);
    std::vector<double> v(kLength);
    for (size_t i = 0; i < kLength; ++i) {
      double x = (static_cast<double>(i) - shift) / kPeriod;
      v[i] = amp * std::sin(kTwoPi * x + opts.phase) +
             rng.Gaussian(0.0, opts.noise_sd);
    }
    out.emplace_back(0, 600, std::move(v),
                     "family_" + std::to_string(opts.seed) + "_" +
                         std::to_string(m));
  }
  return out;
}

}  // namespace dbaugur::workloads
