// Workload trace extraction (paper §IV-A): parses timestamped query logs,
// maps each statement to its SQL template, and bins occurrences per template
// at the forecasting interval to produce arrival-rate traces.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

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

/// Most bins one materialized trace may span, here and in
/// serve::TraceBinner::Traces. A wider range fails instead of being
/// zero-filled: one garbage timestamp must not turn every template's trace
/// into gigabytes.
constexpr size_t kMaxMaterializedBins = size_t{1} << 22;  // ~4M bins

/// Number of bins in [min_bin, max_bin] (min_bin <= max_bin). Unsigned
/// arithmetic, so no spread is signed-overflow UB; the one count past size_t
/// (all of int64) saturates instead of wrapping to 0.
inline size_t BinSpan(int64_t min_bin, int64_t max_bin) {
  const uint64_t diff =
      static_cast<uint64_t>(max_bin) - static_cast<uint64_t>(min_bin);
  return diff >= SIZE_MAX ? SIZE_MAX : static_cast<size_t>(diff + 1);
}

/// Extraction configuration.
struct ExtractionOptions {
  int64_t interval_seconds = 600;  ///< Forecasting interval I (paper: 10 min).
  sql::TemplateOptions template_opts;
};

/// Streaming extractor: ingest log entries, then materialize per-template
/// arrival-rate traces over the observed time range.
class TraceExtractor {
 public:
  explicit TraceExtractor(const ExtractionOptions& opts) : opts_(opts) {}

  /// Templates the statement and counts it in its time bin.
  Status Ingest(const LogEntry& entry);
  Status IngestLog(const std::vector<LogEntry>& entries);

  /// Lenient variant: a statement the templater rejects (tokenizer error,
  /// embedded garbage) is counted in rejected_statements() and skipped
  /// instead of failing — returns whether the entry was ingested.
  bool IngestLenient(const LogEntry& entry);

  /// One arrival-rate Series per template id, all aligned to the same start
  /// and length (bins with no occurrences are zero). FailedPrecondition
  /// before any entry, or when the bins span more than kMaxMaterializedBins.
  StatusOr<std::vector<ts::Series>> TemplateTraces() const;

  const sql::TemplateRegistry& registry() const { return registry_; }
  size_t entry_count() const { return entry_count_; }
  /// Statements skipped by IngestLenient since construction.
  uint64_t rejected_statements() const { return rejected_statements_; }

 private:
  ExtractionOptions opts_;
  sql::TemplateRegistry registry_{sql::TemplateOptions()};
  // template id -> (bin index -> count); bin = floor(ts / interval).
  std::vector<std::map<int64_t, double>> bins_;
  int64_t min_bin_ = 0, max_bin_ = -1;
  size_t entry_count_ = 0;
  uint64_t rejected_statements_ = 0;
};

}  // namespace dbaugur::trace
