// Seeded grammar-driven query-log stream generator for the end-to-end chaos
// harness (TxCheck-style: a grammar produces diverse realistic inputs, a
// differential oracle checks the system against a sequential reference).
//
// A generated stream is a time-ordered mix of:
//   - well-formed "<epoch> <sql>" log lines drawn from a catalog of SQL
//     template slots over the BusTracker schema (literal churn, IN-list
//     arity churn, diurnal + bursty arrival rates, template birth/death
//     schedules, duplicated timestamps), each paired with the pre-parsed
//     serve::TraceEvent a log shipper would emit for it;
//   - malformed lines with a *guaranteed* rejection class (no SQL after the
//     timestamp; unparseable / overflowing timestamp field);
//   - well-formed lines whose statement the tokenizer must reject
//     (truncated string literal, unterminated comment, embedded NUL,
//     control bytes, unexpected characters);
//   - event-only items: clock-skewed timestamps (pre-epoch, far-future,
//     INT64 extremes, stale) and out-of-range template ids, which must land
//     in the ingest quarantine counters, never in the binner.
//
// Everything is derived from StreamOptions::seed, so any failure reproduces
// from its (seed, profile) pair alone.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/ingestor.h"
#include "ts/series.h"

namespace dbaugur::chaos {

/// Stream shapes the harness sweeps over.
enum class StreamProfile {
  kSteady,         ///< All templates alive, mild diurnal rates, clean input.
  kTemplateChurn,  ///< Templates born/dying mid-stream, IN-lists up to ~200.
  kBurstySkewed,   ///< Burst bins, duplicated timestamps, clock-skewed and
                   ///< bad-template events.
  kMalformedHeavy, ///< ~1/3 of text items malformed or tokenizer-rejected.
};

/// Stable lowercase name ("steady", "template-churn", ...), used in repro
/// lines and the seed corpus.
const char* ProfileName(StreamProfile profile);

/// Inverse of ProfileName; InvalidArgument on unknown names.
StatusOr<StreamProfile> ParseProfile(const std::string& name);

/// All four profiles, in declaration order.
std::vector<StreamProfile> AllProfiles();

/// Generator configuration. Everything is deterministic in (seed, profile).
struct StreamOptions {
  uint64_t seed = 1;
  StreamProfile profile = StreamProfile::kSteady;
  size_t bins = 48;                ///< Stream length in forecast intervals.
  int64_t interval_seconds = 600;  ///< Forecast interval (bin width).
  size_t templates = 8;            ///< Grammar slots used (clamped to catalog).
  double mean_rate = 3.0;          ///< Mean events per template per bin.
};

/// One generated item: a log line, a pre-parsed event, or both.
struct StreamItem {
  enum class Kind {
    kQuery,            ///< Well-formed line + matching event.
    kMalformedLine,    ///< Text only; the log parser must reject the line.
    kBadStatement,     ///< Text only; the line parses but the SQL must not.
    kSkewedEvent,      ///< Event only; clock-skewed timestamp.
    kBadTemplateEvent, ///< Event only; template_id out of range.
  };
  /// For kMalformedLine: which rejection counter the line must hit.
  enum class LineReject { kNone, kNoSql, kBadTimestamp };

  Kind kind = Kind::kQuery;
  LineReject line_reject = LineReject::kNone;
  ts::Timestamp timestamp = 0;  ///< Nominal stream position (ordering only).
  std::string line;             ///< Raw log line; empty for event-only items.
  serve::TraceEvent event;      ///< Pre-parsed event; valid iff has_event.
  bool has_event = false;
  size_t template_index = 0;    ///< Grammar slot; meaningful for kQuery.
};

/// Ground truth the differential oracles check against.
struct StreamGroundTruth {
  uint64_t well_formed = 0;             ///< kQuery items.
  uint64_t malformed_no_sql = 0;        ///< kMalformedLine / kNoSql.
  uint64_t malformed_bad_timestamp = 0; ///< kMalformedLine / kBadTimestamp.
  uint64_t bad_statements = 0;          ///< kBadStatement items.
  uint64_t skewed_events = 0;           ///< kSkewedEvent items.
  uint64_t bad_template_events = 0;     ///< kBadTemplateEvent items.
  uint64_t duplicate_timestamps = 0;    ///< kQuery items reusing the previous
                                        ///< item's exact timestamp.
  /// Per grammar slot (parallel vectors, one entry per active slot):
  std::vector<std::string> template_text;  ///< Canonical sql::ToTemplate text.
  std::vector<bool> replayable;   ///< Slot parses under dbsim's restricted SQL.
  std::vector<uint64_t> template_counts;  ///< kQuery items emitted per slot.
  std::vector<size_t> birth_bin;  ///< First bin the slot is active in.
  std::vector<size_t> death_bin;  ///< One past the last active bin (<= bins).
};

/// A generated stream plus its ground truth.
struct GeneratedStream {
  StreamOptions opts;
  std::vector<StreamItem> items;  ///< Bin-major, ascending nominal timestamp.
  StreamGroundTruth truth;

  /// The raw query-log text: every text-bearing item's line, '\n'-joined.
  std::string Text() const;
};

/// The template id every kBadTemplateEvent carries — far above any harness
/// max_templates setting.
inline constexpr uint32_t kBadTemplateId = 1u << 20;

/// Generates one stream. Aborts (DBAUGUR_CHECK) on bins == 0,
/// interval_seconds <= 0, templates == 0, or a catalog statement the
/// templater itself rejects (a generator bug, not an input condition).
GeneratedStream GenerateStream(const StreamOptions& opts);

}  // namespace dbaugur::chaos
