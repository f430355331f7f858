// Workload trace extraction (paper §IV-A): parses timestamped query logs,
// maps each statement to its SQL template, and bins occurrences per template
// at the forecasting interval to produce arrival-rate traces.
//
// TraceBinner is the one trace store: TraceExtractor (the offline pipeline)
// and every serving shard (serve::Retrainer) fold their arrivals into it, so
// both bin by the same rules — epoch-origin floor division, one
// [min_bin, max_bin] range, zero-fill, the kMaxMaterializedBins refusal and
// the "template<id>" trace name.
//
// The store keeps each template's history as one contiguous run of 16-byte
// (bin, count) pairs in ascending bin order, in a map keyed by template id.
// An in-order arrival appends or adds to the run's last pair; a late one
// binary-searches its run. Runs grow by a quarter, not by doubling, so an
// entry costs its 16 bytes, at most a quarter more of spare capacity and a
// share of its template's map node: 20-23 heap bytes per entry at 17-100
// bins per template (glibc mallinfo2), where the map of maps it replaced
// cost 65-70.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "sql/templater.h"
#include "ts/series.h"

namespace dbaugur::trace {

/// One query-log record.
struct LogEntry {
  ts::Timestamp timestamp = 0;
  std::string sql;
};

/// Per-class rejection counters for lenient log parsing.
struct LogRejectStats {
  uint64_t no_sql = 0;         ///< Line had no statement after the timestamp.
  uint64_t bad_timestamp = 0;  ///< Leading field(s) not a parseable timestamp.

  uint64_t total() const { return no_sql + bad_timestamp; }
};

/// Result of a lenient parse: every well-formed line, plus counters for the
/// rejected ones and the first rejection's diagnostics.
struct ParsedQueryLog {
  std::vector<LogEntry> entries;
  LogRejectStats rejected;
  size_t first_bad_line = 0;  ///< 1-based line number; 0 when nothing rejected.
  std::string first_error;    ///< Empty when nothing rejected.
};

/// Parses "<timestamp> <sql...>" lines. The timestamp is either epoch seconds
/// or "YYYY-MM-DD HH:MM:SS" / "YYYY-MM-DDTHH:MM:SS". Blank lines are skipped;
/// malformed lines produce InvalidArgument with the line number.
StatusOr<std::vector<LogEntry>> ParseQueryLog(const std::string& text);

/// Lenient variant: malformed lines are skipped and counted per rejection
/// class instead of failing the whole parse — the shape a log shipper needs
/// (one truncated line must not discard the batch). ParseQueryLog is this
/// plus "any rejection fails with the first line's error".
ParsedQueryLog ParseQueryLogLenient(const std::string& text);

/// Parses one timestamp in the formats above. Digit strings that overflow
/// int64 are InvalidArgument (never an exception).
StatusOr<ts::Timestamp> ParseTimestamp(std::string_view text);

/// Most bins one materialized trace may span (TraceBinner::Traces). A wider
/// range fails instead of being zero-filled: one garbage timestamp must not
/// turn every template's trace into gigabytes.
constexpr size_t kMaxMaterializedBins = size_t{1} << 22;  // ~4M bins

/// Number of bins in [min_bin, max_bin] (min_bin <= max_bin). Unsigned
/// arithmetic, so no spread is signed-overflow UB; the one count past size_t
/// (all of int64) saturates instead of wrapping to 0.
inline size_t BinSpan(int64_t min_bin, int64_t max_bin) {
  const uint64_t diff =
      static_cast<uint64_t>(max_bin) - static_cast<uint64_t>(min_bin);
  return diff >= SIZE_MAX ? SIZE_MAX : static_cast<size_t>(diff + 1);
}

/// One workload observation: `count` arrivals of template `template_id`
/// at `timestamp`. Counts are doubles so pre-aggregated sources (per-second
/// rates, sampled logs with weights) can feed the same path.
struct TraceEvent {
  uint32_t template_id = 0;
  ts::Timestamp timestamp = 0;
  double count = 1.0;
};

/// Accumulates events into per-template fixed-interval bins and
/// materializes them as equal-length, zero-filled ts::Series traces (the
/// workload collection BuildTrainedState expects). Single-threaded: owned by
/// one extractor or one shard's retrain loop.
class TraceBinner {
 public:
  /// Aborts (DBAUGUR_CHECK) when interval_seconds <= 0.
  explicit TraceBinner(int64_t interval_seconds);

  /// The bin an event at `timestamp` lands in: floor(timestamp / interval).
  /// The origin is the epoch — never the first event seen — so the mapping is
  /// stable across Save/Load and across services whose first events differ,
  /// including events landing exactly on a bin boundary.
  int64_t BinIndex(ts::Timestamp timestamp) const;

  /// Adds one event's count to its template's bin (BinIndex above).
  void Fold(const TraceEvent& event);

  /// Adds `count` directly to (template_id, bin) — the re-hash migration path
  /// replays another binner's sparse bins without round-tripping through
  /// timestamps (whose bin mapping is already applied). Maintains the same
  /// [min_bin, max_bin] bookkeeping as Fold.
  void FoldBin(uint32_t template_id, int64_t bin, double count);

  /// Number of distinct intervals between the earliest and latest bin seen
  /// (0 before any event; BinSpan). This is the common length Traces() will
  /// emit.
  size_t bin_count() const;

  /// Number of distinct template ids seen.
  size_t template_count() const { return runs_.size(); }

  int64_t interval_seconds() const { return interval_; }

  /// Materializes one Series per template ("template<id>"), all covering
  /// [min_bin, max_bin] with zeros where a template had no arrivals.
  /// FailedPrecondition before any event is folded, or when the range spans
  /// more than kMaxMaterializedBins bins.
  StatusOr<std::vector<ts::Series>> Traces() const;

  /// Appends the binner's full state (interval, bin range, per-template
  /// sparse bins) to *w for service snapshots.
  void Save(BufWriter* w) const;

  /// Restores a Save blob in place; on failure the binner is unchanged.
  /// Template ids must be strictly ascending, and so must the bins within
  /// each template, as Save writes them; anything else is InvalidArgument.
  Status Load(BufReader* r);

  /// Copy of the sparse per-template bins (template id -> bin index ->
  /// summed count), built on each call. Shard-count migration reads it to
  /// re-partition templates across binners by re-hashing their ids.
  std::map<uint32_t, std::map<int64_t, double>> bins() const;

 private:
  struct BinCount {
    int64_t bin = 0;
    double count = 0.0;
  };
  /// One template's history in ascending bin order; sparse, so an idle
  /// template costs nothing until Traces() zero-fills.
  using Run = std::vector<BinCount>;

  int64_t interval_ = 600;
  bool any_ = false;
  int64_t min_bin_ = 0;
  int64_t max_bin_ = 0;
  std::map<uint32_t, Run> runs_;
};

/// Extraction configuration.
struct ExtractionOptions {
  int64_t interval_seconds = 600;  ///< Forecasting interval I (paper: 10 min).
};

/// Streaming extractor: a template registry in front of a TraceBinner. Each
/// statement is templated and folded as one arrival at its timestamp.
class TraceExtractor {
 public:
  /// Aborts (TraceBinner's DBAUGUR_CHECK) when opts.interval_seconds <= 0.
  explicit TraceExtractor(const ExtractionOptions& opts)
      : binner_(opts.interval_seconds) {}

  /// Templates the statement and counts it in its time bin.
  Status Ingest(const LogEntry& entry);
  Status IngestLog(const std::vector<LogEntry>& entries);

  /// Lenient variant: a statement the templater rejects (tokenizer error,
  /// embedded garbage) is counted in rejected_statements() and skipped
  /// instead of failing — returns whether the entry was ingested.
  bool IngestLenient(const LogEntry& entry);

  /// The binner's Traces(): one "template<id>" Series per template id, in id
  /// order, all aligned to the same start and length (bins with no
  /// occurrences are zero). FailedPrecondition before any entry, or when the
  /// bins span more than kMaxMaterializedBins.
  StatusOr<std::vector<ts::Series>> TemplateTraces() const {
    return binner_.Traces();
  }

  const sql::TemplateRegistry& registry() const { return registry_; }
  size_t entry_count() const { return entry_count_; }
  /// Statements skipped by IngestLenient since construction.
  uint64_t rejected_statements() const { return rejected_statements_; }

 private:
  sql::TemplateRegistry registry_;
  TraceBinner binner_;
  size_t entry_count_ = 0;
  uint64_t rejected_statements_ = 0;
};

}  // namespace dbaugur::trace
