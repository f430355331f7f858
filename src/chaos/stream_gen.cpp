#include "chaos/stream_gen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/contracts.h"
#include "common/rng.h"
#include "sql/templater.h"

namespace dbaugur::chaos {

const char* ProfileName(StreamProfile profile) {
  switch (profile) {
    case StreamProfile::kSteady:
      return "steady";
    case StreamProfile::kTemplateChurn:
      return "template-churn";
    case StreamProfile::kBurstySkewed:
      return "bursty-skewed";
    case StreamProfile::kMalformedHeavy:
      return "malformed-heavy";
  }
  return "unknown";
}

StatusOr<StreamProfile> ParseProfile(const std::string& name) {
  for (StreamProfile p : AllProfiles()) {
    if (name == ProfileName(p)) return p;
  }
  return Status::InvalidArgument("unknown stream profile: " + name);
}

std::vector<StreamProfile> AllProfiles() {
  return {StreamProfile::kSteady, StreamProfile::kTemplateChurn,
          StreamProfile::kBurstySkewed, StreamProfile::kMalformedHeavy};
}

namespace {

// Timestamp of the stream's first bin.
constexpr int64_t kStartSeconds = 0;

// Gaussian bump on the day fraction, wrapping midnight (same shape as the
// workloads::BusTrackerTemplates diurnal rates).
double Bump(double day_frac, double center, double sd) {
  double d = day_frac - center;
  if (d > 0.5) d -= 1.0;
  if (d < -0.5) d += 1.0;
  return std::exp(-d * d / (2.0 * sd * sd));
}

std::string Int(Rng& rng, int64_t lo, int64_t hi) {
  return std::to_string(rng.UniformInt(lo, hi));
}

// IN-list with churning arity in [1, max_len] — fresh literals each render.
std::string InList(Rng& rng, int64_t lo, int64_t hi, size_t max_len) {
  int64_t len = rng.UniformInt(1, static_cast<int64_t>(max_len));
  std::string out = "(";
  for (int64_t i = 0; i < len; ++i) {
    if (i > 0) out += ", ";
    out += Int(rng, lo, hi);
  }
  out += ")";
  return out;
}

// One grammar slot: a SQL statement family over the BusTracker schema whose
// structure is fixed (so every render canonicalizes to one template) while
// its literals — and for IN slots, the list arity — churn per render.
struct SlotSpec {
  const char* name;
  /// Statements of this slot parse under dbsim's restricted SQL (single
  /// table, conjunctive int/float predicates) and execute against
  /// MakeBusTrackerDatabase. The harness cross-checks this flag against
  /// dbsim::ParseQuery on every rendered statement.
  bool replayable;
  double rate_scale;   ///< Multiplier on StreamOptions::mean_rate.
  double bump_center;  ///< Diurnal peak as a day fraction; < 0 = flat rate.
  std::string (*make)(Rng& rng, size_t in_max);
};

const std::vector<SlotSpec>& Catalog() {
  static const std::vector<SlotSpec> kCatalog = {
      {"positions_by_route", true, 1.0, 0.33,
       [](Rng& rng, size_t) {
         return "SELECT * FROM positions WHERE route_id = " + Int(rng, 1, 400);
       }},
      {"ticket_prices", true, 0.8, 0.75,
       [](Rng& rng, size_t) {
         return "SELECT price, seats FROM tickets WHERE trip_id = " +
                Int(rng, 1, 2000);
       }},
      {"position_update", true, 0.7, -1.0,
       [](Rng& rng, size_t) {
         return "UPDATE positions SET lat = " +
                std::to_string(rng.Uniform(40.0, 41.0)) + ", lon = " +
                std::to_string(rng.Uniform(-80.1, -79.8)) +
                " WHERE bus_id = " + Int(rng, 1, 1200);
       }},
      {"departures_range", true, 0.6, 0.5,
       [](Rng& rng, size_t) {
         int64_t start = rng.UniformInt(0, 80000);
         return "SELECT * FROM trips WHERE depart_time > " +
                std::to_string(start) + " AND depart_time < " +
                std::to_string(start + 3600);
       }},
      {"schedules_in_stops", false, 0.9, 0.4,
       [](Rng& rng, size_t in_max) {
         return "SELECT * FROM schedules WHERE stop_id IN " +
                InList(rng, 1, 5000, in_max);
       }},
      {"tickets_in_trips", false, 0.5, 0.7,
       [](Rng& rng, size_t in_max) {
         return "SELECT trip_id FROM tickets WHERE trip_id IN " +
                InList(rng, 1, 2000, in_max) + " AND price < " +
                Int(rng, 5, 80);
       }},
      {"positions_page", false, 0.6, 0.3,
       [](Rng& rng, size_t) {
         return "SELECT * FROM positions WHERE route_id = " + Int(rng, 1, 400) +
                " ORDER BY bus_id LIMIT " + Int(rng, 10, 200);
       }},
      {"rider_search", false, 0.4, 0.55,
       [](Rng& rng, size_t) {
         // String-literal churn, sometimes with a ''-escaped quote.
         std::string who = rng.Bernoulli(0.3) ? "o''brien-" + Int(rng, 1, 99)
                                              : "rider-" + Int(rng, 1, 500);
         return "SELECT * FROM riders WHERE name LIKE '" + who + "%'";
       }},
      {"ticket_insert", false, 0.5, -1.0,
       [](Rng& rng, size_t) {
         return "INSERT INTO tickets VALUES (" + Int(rng, 2001, 4000) + ", " +
                std::to_string(rng.Uniform(5.0, 80.0)) + ", " +
                Int(rng, 0, 60) + ")";
       }},
      {"schedule_cleanup", false, 0.3, 0.1,
       [](Rng& rng, size_t) {
         return "DELETE FROM schedules WHERE arrival < " + Int(rng, 0, 86400);
       }},
      {"price_histogram", false, 0.4, 0.5,
       [](Rng& rng, size_t) {
         int64_t lo = rng.UniformInt(0, 40);
         return "SELECT COUNT(*) FROM tickets WHERE price BETWEEN " +
                std::to_string(lo) + " AND " + std::to_string(lo + 20);
       }},
      {"position_scan_or", false, 0.3, 0.6,
       [](Rng& rng, size_t) {
         // Disjunction keeps this outside dbsim's conjunctive subset; the
         // trailing comment exercises comment stripping in templating.
         return "SELECT bus_id FROM positions WHERE lat > " +
                std::to_string(rng.Uniform(40.0, 41.0)) + " OR lon < " +
                std::to_string(rng.Uniform(-80.1, -79.8)) +
                " -- hot path probe";
       }},
  };
  return kCatalog;
}

// Guaranteed "no SQL after timestamp": a single token survives trimming.
std::string MakeNoSqlLine(Rng& rng, ts::Timestamp ts) {
  switch (rng.UniformInt(0, 2)) {
    case 0:
      return std::to_string(ts);  // bare timestamp, statement truncated away
    case 1:
      return "####" + Int(rng, 0, 999);  // one junk token
    default:
      return std::to_string(ts) + "\t";  // trailing tab is trimmed
  }
}

// Guaranteed "bad timestamp": neither one- nor two-field prefix parses.
std::string MakeBadTimestampLine(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return "not-a-time SELECT * FROM positions WHERE route_id = " +
             Int(rng, 1, 400);
    case 1:
      // Digit string overflowing int64: must reject cleanly, never throw.
      return "99999999999999999999999 SELECT * FROM positions";
    case 2:
      return std::string("\x01\x02") + " SELECT 1";  // control bytes
    default:
      return "13:37 late SELECT * FROM trips";  // two unparseable fields
  }
}

// A statement the tokenizer must reject (the *line* still parses).
std::string MakeBadStatementSql(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return "SELECT * FROM tickets WHERE note = 'truncat";  // cut in string
    case 1:
      return "SELECT * FROM trips /* cut mid-comment";
    case 2:
      return "SELECT @@rowcount FROM positions";  // unexpected character
    case 3: {
      std::string s = "SELECT ";
      s += '\0';  // embedded NUL from a torn write
      s += "FROM tickets";
      return s;
    }
    default: {
      std::string s = "SELECT * FROM tickets WHERE note = 'a";
      s += '\0';  // NUL smuggled inside a string literal
      s += "b'";
      return s;
    }
  }
}

// A clock-skewed event timestamp. Which quarantine counter (pre_epoch,
// future, stale) — or, for the mildly-stale case early in the stream, which
// acceptance — results is decided by the oracle's sequential reference, not
// here: the generator only promises the value is skewed.
ts::Timestamp SkewedTimestamp(Rng& rng, ts::Timestamp now) {
  switch (rng.UniformInt(0, 6)) {
    case 0:
      return std::numeric_limits<int64_t>::min();
    case 1:
      return std::numeric_limits<int64_t>::min() + 3;
    case 2:
      return -1;
    case 3:
      return std::numeric_limits<int64_t>::max();
    case 4:
      return std::numeric_limits<int64_t>::max() - 5;
    case 5:
      return 4102444801;  // one past the default far-future bound
    default:
      return now - 30 * 86400;  // a month behind the stream clock
  }
}

}  // namespace

std::string GeneratedStream::Text() const {
  std::string out;
  for (const StreamItem& item : items) {
    if (item.line.empty()) continue;
    out += item.line;
    out += '\n';
  }
  return out;
}

GeneratedStream GenerateStream(const StreamOptions& opts) {
  DBAUGUR_CHECK(opts.bins >= 1, "GenerateStream needs bins >= 1");
  DBAUGUR_CHECK(opts.interval_seconds > 0,
                "GenerateStream interval_seconds must be positive, got ",
                opts.interval_seconds);
  DBAUGUR_CHECK(opts.templates >= 1, "GenerateStream needs templates >= 1");
  const std::vector<SlotSpec>& catalog = Catalog();
  const size_t slots = std::min(opts.templates, catalog.size());
  const size_t in_max =
      opts.profile == StreamProfile::kTemplateChurn ? 200 : 8;

  GeneratedStream out;
  out.opts = opts;
  StreamGroundTruth& truth = out.truth;

  // Canonical template per slot from a sample render: placeholdering makes
  // the text independent of the literals (and IN-list arity) drawn.
  truth.template_text.resize(slots);
  truth.replayable.resize(slots);
  truth.template_counts.assign(slots, 0);
  for (size_t s = 0; s < slots; ++s) {
    Rng sample_rng(opts.seed ^ (0x5EED0000ULL + s));
    auto tmpl = sql::ToTemplate(catalog[s].make(sample_rng, in_max));
    DBAUGUR_CHECK(tmpl.ok(), "chaos catalog slot ", s,
                  " does not template: ", tmpl.status().message());
    truth.template_text[s] = *tmpl;
    truth.replayable[s] = catalog[s].replayable;
  }

  Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL +
          static_cast<uint64_t>(opts.profile) + 1);

  // Birth/death schedules: under template churn, all but two anchor slots
  // may appear late and/or vanish early.
  truth.birth_bin.assign(slots, 0);
  truth.death_bin.assign(slots, opts.bins);
  if (opts.profile == StreamProfile::kTemplateChurn && opts.bins >= 8) {
    for (size_t s = 2; s < slots; ++s) {
      if (rng.Bernoulli(0.6)) {
        truth.birth_bin[s] = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(opts.bins / 2)));
      }
      if (rng.Bernoulli(0.6)) {
        int64_t min_death = static_cast<int64_t>(truth.birth_bin[s]) + 2;
        truth.death_bin[s] = static_cast<size_t>(std::min(
            static_cast<int64_t>(opts.bins),
            rng.UniformInt(min_death, static_cast<int64_t>(opts.bins))));
      }
    }
  }

  // Burst schedule: a few bins run several times the base rate.
  std::vector<bool> burst(opts.bins, false);
  if (opts.profile == StreamProfile::kBurstySkewed) {
    size_t n_bursts = std::max<size_t>(1, opts.bins / 12);
    for (size_t b = 0; b < n_bursts; ++b) {
      burst[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(opts.bins) - 1))] = true;
    }
  }

  ts::Timestamp last_query_ts = 0;
  bool have_last_ts = false;
  for (size_t bin = 0; bin < opts.bins; ++bin) {
    const int64_t bin_start =
        kStartSeconds + static_cast<int64_t>(bin) * opts.interval_seconds;
    const double day_frac =
        static_cast<double>(((bin_start % 86400) + 86400) % 86400) / 86400.0;
    const double burst_mul = burst[bin] ? 6.0 : 1.0;
    for (size_t s = 0; s < slots; ++s) {
      if (bin < truth.birth_bin[s] || bin >= truth.death_bin[s]) continue;
      const SlotSpec& spec = catalog[s];
      double rate = opts.mean_rate * spec.rate_scale * burst_mul;
      if (spec.bump_center >= 0.0) {
        rate *= 0.5 + 1.5 * Bump(day_frac, spec.bump_center, 0.08);
      }
      int64_t count = rng.Poisson(rate);
      for (int64_t q = 0; q < count; ++q) {
        ts::Timestamp ts = bin_start + rng.UniformInt(0, opts.interval_seconds - 1);
        if (opts.profile == StreamProfile::kBurstySkewed && have_last_ts &&
            rng.Bernoulli(0.35)) {
          ts = last_query_ts;  // duplicated timestamp (bursty log shipper)
          ++truth.duplicate_timestamps;
        }
        last_query_ts = ts;
        have_last_ts = true;
        StreamItem item;
        item.kind = StreamItem::Kind::kQuery;
        item.timestamp = ts;
        item.line = std::to_string(ts) + " " + spec.make(rng, in_max);
        item.event =
            serve::TraceEvent{static_cast<uint32_t>(s), ts, 1.0};
        item.has_event = true;
        item.template_index = s;
        out.items.push_back(std::move(item));
        ++truth.template_counts[s];
        ++truth.well_formed;
      }
    }

    // Dirty-input injections, per profile.
    double p_malformed = 0.0;
    double p_skew = 0.0;
    double p_bad_template = 0.0;
    int64_t n_malformed = 0;
    switch (opts.profile) {
      case StreamProfile::kSteady:
        break;
      case StreamProfile::kTemplateChurn:
        p_malformed = 0.05;
        break;
      case StreamProfile::kBurstySkewed:
        p_malformed = 0.03;
        p_skew = 0.5;
        p_bad_template = 0.3;
        break;
      case StreamProfile::kMalformedHeavy:
        n_malformed =
            rng.Poisson(opts.mean_rate * static_cast<double>(slots) * 0.5);
        p_bad_template = 0.2;
        break;
    }
    if (n_malformed == 0 && p_malformed > 0.0 && rng.Bernoulli(p_malformed)) {
      n_malformed = 1;
    }
    for (int64_t m = 0; m < n_malformed; ++m) {
      ts::Timestamp ts = bin_start + rng.UniformInt(0, opts.interval_seconds - 1);
      StreamItem item;
      item.timestamp = ts;
      switch (rng.UniformInt(0, 2)) {
        case 0:
          item.kind = StreamItem::Kind::kMalformedLine;
          item.line_reject = StreamItem::LineReject::kNoSql;
          item.line = MakeNoSqlLine(rng, ts);
          ++truth.malformed_no_sql;
          break;
        case 1:
          item.kind = StreamItem::Kind::kMalformedLine;
          item.line_reject = StreamItem::LineReject::kBadTimestamp;
          item.line = MakeBadTimestampLine(rng);
          ++truth.malformed_bad_timestamp;
          break;
        default:
          item.kind = StreamItem::Kind::kBadStatement;
          item.line = std::to_string(ts) + " " + MakeBadStatementSql(rng);
          ++truth.bad_statements;
          break;
      }
      out.items.push_back(std::move(item));
    }
    if (p_skew > 0.0 && rng.Bernoulli(p_skew)) {
      StreamItem item;
      item.kind = StreamItem::Kind::kSkewedEvent;
      item.timestamp = bin_start;
      item.event =
          serve::TraceEvent{0, SkewedTimestamp(rng, bin_start), 1.0};
      item.has_event = true;
      out.items.push_back(std::move(item));
      ++truth.skewed_events;
    }
    if (p_bad_template > 0.0 && rng.Bernoulli(p_bad_template)) {
      ts::Timestamp ts = bin_start + rng.UniformInt(0, opts.interval_seconds - 1);
      StreamItem item;
      item.kind = StreamItem::Kind::kBadTemplateEvent;
      item.timestamp = ts;
      item.event = serve::TraceEvent{
          kBadTemplateId + static_cast<uint32_t>(rng.UniformInt(0, 7)), ts,
          1.0};
      item.has_event = true;
      out.items.push_back(std::move(item));
      ++truth.bad_template_events;
    }
  }
  return out;
}

}  // namespace dbaugur::chaos
