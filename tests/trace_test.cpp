// Tests for query-log parsing and trace extraction.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "trace/extractor.h"
#include "workloads/query_log.h"

namespace dbaugur::trace {
namespace {

TEST(TimestampTest, EpochSeconds) {
  auto t = ParseTimestamp("1480413600");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 1480413600);
}

TEST(TimestampTest, IsoDateTime) {
  auto t = ParseTimestamp("1970-01-01 00:01:40");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, 100);
  auto t2 = ParseTimestamp("1970-01-02T00:00:00");
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*t2, 86400);
}

TEST(TimestampTest, RejectsGarbage) {
  EXPECT_FALSE(ParseTimestamp("yesterday").ok());
  EXPECT_FALSE(ParseTimestamp("").ok());
  EXPECT_FALSE(ParseTimestamp("2016-13-40 99:00:00").ok());
}

TEST(ParseQueryLogTest, MixedFormats) {
  std::string log =
      "100 SELECT * FROM t WHERE id = 1\n"
      "\n"
      "1970-01-01 00:02:00 SELECT * FROM t WHERE id = 2\n"
      "1970-01-01T00:03:00 UPDATE t SET x = 5 WHERE id = 3\n";
  auto entries = ParseQueryLog(log);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].timestamp, 100);
  EXPECT_EQ((*entries)[1].timestamp, 120);
  EXPECT_EQ((*entries)[2].timestamp, 180);
  EXPECT_EQ((*entries)[2].sql.substr(0, 6), "UPDATE");
}

TEST(ParseQueryLogTest, BadLineReportsLineNumber) {
  auto entries = ParseQueryLog("100 SELECT 1\nnot-a-line\n");
  ASSERT_FALSE(entries.ok());
  EXPECT_NE(entries.status().message().find("line 2"), std::string::npos);
}

TEST(TraceExtractorTest, BinsPerTemplate) {
  ExtractionOptions opts;
  opts.interval_seconds = 60;
  TraceExtractor ex(opts);
  // Template A at t=0,30 (bin 0) and t=70 (bin 1); template B at t=130 (bin 2).
  ASSERT_TRUE(ex.Ingest({0, "SELECT * FROM a WHERE id = 1"}).ok());
  ASSERT_TRUE(ex.Ingest({30, "SELECT * FROM a WHERE id = 9"}).ok());
  ASSERT_TRUE(ex.Ingest({70, "SELECT * FROM a WHERE id = 2"}).ok());
  ASSERT_TRUE(ex.Ingest({130, "SELECT * FROM b WHERE id = 3"}).ok());
  auto traces = ex.TemplateTraces();
  ASSERT_TRUE(traces.ok());
  ASSERT_EQ(traces->size(), 2u);
  const auto& a = (*traces)[0];
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[1], 1.0);
  EXPECT_DOUBLE_EQ(a[2], 0.0);
  const auto& b = (*traces)[1];
  EXPECT_DOUBLE_EQ(b[2], 1.0);
  EXPECT_EQ(a.interval_seconds(), 60);
}

TEST(TraceExtractorTest, SimilarStatementsShareTemplate) {
  ExtractionOptions opts;
  opts.interval_seconds = 60;
  TraceExtractor ex(opts);
  ASSERT_TRUE(ex.Ingest({0, "SELECT a, b FROM foo"}).ok());
  ASSERT_TRUE(ex.Ingest({10, "SELECT b, a FROM foo"}).ok());
  EXPECT_EQ(ex.registry().size(), 1u);
}

TEST(TraceExtractorTest, EmptyExtractorFails) {
  TraceExtractor ex(ExtractionOptions{});
  EXPECT_FALSE(ex.TemplateTraces().ok());
}

TEST(TraceExtractorTest, FarFutureTimestampFailsInsteadOfZeroFilling) {
  // One far-future line spreads the default 600 s bins over ~1.5e10
  // intervals; zero-filling them would allocate ~120 GB per template.
  TraceExtractor ex(ExtractionOptions{});
  ASSERT_TRUE(ex.Ingest({1600000000, "SELECT a FROM t WHERE id = 1"}).ok());
  ASSERT_TRUE(ex.Ingest({9000000000000, "SELECT a FROM t WHERE id = 2"}).ok());
  auto traces = ex.TemplateTraces();
  ASSERT_FALSE(traces.ok());
  EXPECT_EQ(traces.status().code(), StatusCode::kFailedPrecondition);

  // A range wider than int64 is refused the same way, not wrapped.
  ExtractionOptions unit;
  unit.interval_seconds = 1;
  TraceExtractor wide(unit);
  const int64_t far = std::numeric_limits<int64_t>::max();
  ASSERT_TRUE(wide.Ingest({-far, "SELECT a FROM t WHERE id = 1"}).ok());
  ASSERT_TRUE(wide.Ingest({far, "SELECT a FROM t WHERE id = 2"}).ok());
  EXPECT_EQ(wide.TemplateTraces().status().code(),
            StatusCode::kFailedPrecondition);

  // The widest range the bound allows still materializes.
  TraceExtractor edge(unit);
  const auto last = static_cast<int64_t>(kMaxMaterializedBins) - 1;
  ASSERT_TRUE(edge.Ingest({0, "SELECT a FROM t WHERE id = 1"}).ok());
  ASSERT_TRUE(edge.Ingest({last, "SELECT a FROM t WHERE id = 2"}).ok());
  auto fit = edge.TemplateTraces();
  ASSERT_TRUE(fit.ok());
  EXPECT_EQ((*fit)[0].size(), kMaxMaterializedBins);
}

TEST(TraceExtractorTest, RejectsBadInterval) {
  // The binner refuses the interval once, at construction.
  ExtractionOptions opts;
  opts.interval_seconds = 0;
  EXPECT_DEATH(TraceExtractor{opts},
               "TraceBinner interval must be positive, got 0");
}

TEST(TraceExtractorTest, TracesMatchTheServiceBinner) {
  // The extractor folds every statement into a TraceBinner, the class every
  // serving shard bins with, so registry ids folded through one by hand give
  // the same traces: every value bit for bit, start, interval and name.
  workloads::QueryLogOptions lopts;
  lopts.days = 1;
  lopts.seed = 5;
  std::vector<LogEntry> log =
      workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), lopts);
  // A pre-epoch entry (floor division opens bin -1) and one exactly on a
  // bin boundary.
  log.push_back({-1, "SELECT * FROM a WHERE id = 1"});
  log.push_back({3 * 600, "SELECT * FROM a WHERE id = 2"});
  ExtractionOptions opts;
  TraceExtractor ex(opts);
  ASSERT_TRUE(ex.IngestLog(log).ok());
  sql::TemplateRegistry registry;
  TraceBinner binner(opts.interval_seconds);
  for (const LogEntry& e : log) {
    auto id = registry.Record(e.sql);
    ASSERT_TRUE(id.ok());
    binner.Fold({static_cast<uint32_t>(*id), e.timestamp, 1.0});
  }
  auto got = ex.TemplateTraces();
  auto want = binner.Traces();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->size(), 7u);  // six BusTracker templates and one more
  ASSERT_EQ(got->size(), want->size());
  EXPECT_EQ((*got)[0].start(), -600);
  for (size_t i = 0; i < got->size(); ++i) {
    const ts::Series& g = (*got)[i];
    const ts::Series& w = (*want)[i];
    EXPECT_EQ(g.name(), w.name());
    EXPECT_EQ(g.name(), "template" + std::to_string(i));
    EXPECT_EQ(g.start(), w.start());
    EXPECT_EQ(g.interval_seconds(), w.interval_seconds());
    ASSERT_EQ(g.size(), w.size());
    EXPECT_EQ(std::memcmp(g.values().data(), w.values().data(),
                          g.size() * sizeof(double)),
              0)
        << g.name();
  }
}

TEST(QueryLogGeneratorTest, ProducesOrderedParsableLog) {
  workloads::QueryLogOptions opts;
  opts.days = 1;
  opts.seed = 5;
  auto log = workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), opts);
  ASSERT_GT(log.size(), 1000u);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].timestamp, log[i].timestamp);
  }
  // Every generated statement must survive SQL2Template.
  ExtractionOptions eopts;
  eopts.interval_seconds = 600;
  TraceExtractor ex(eopts);
  ASSERT_TRUE(ex.IngestLog(log).ok());
  // Six specs => six templates (literals differ per statement).
  EXPECT_EQ(ex.registry().size(), 6u);
  auto traces = ex.TemplateTraces();
  ASSERT_TRUE(traces.ok());
  EXPECT_EQ((*traces)[0].size(), 144u);  // 1 day at 10-minute bins
}

TEST(QueryLogGeneratorTest, EveningTemplatesPeakInEvening) {
  workloads::QueryLogOptions opts;
  opts.days = 2;
  opts.seed = 6;
  auto specs = workloads::BusTrackerTemplates();
  auto log = workloads::GenerateQueryLog(specs, opts);
  // Count ticket-price queries by half of day.
  size_t morning = 0, evening = 0;
  for (const auto& e : log) {
    if (e.sql.find("price") == std::string::npos) continue;
    int64_t sec_of_day = e.timestamp % 86400;
    if (sec_of_day < 43200) {
      ++morning;
    } else {
      ++evening;
    }
  }
  EXPECT_GT(evening, morning * 3);
}

// --- hardening: lenient log parsing and per-class rejection counters ---------

TEST(TimestampTest, OverflowingDigitStringRejectedCleanly) {
  auto ts = ParseTimestamp("99999999999999999999999");
  ASSERT_FALSE(ts.ok());
  EXPECT_NE(ts.status().message().find("out of range"), std::string::npos)
      << ts.status().message();
  // Near the boundary: INT64_MAX parses, one more digit does not.
  EXPECT_TRUE(ParseTimestamp("9223372036854775807").ok());
  EXPECT_FALSE(ParseTimestamp("92233720368547758070").ok());
}

TEST(ParseQueryLogLenientTest, CountsEachRejectionClass) {
  const std::string text =
      "100 SELECT * FROM a\n"
      "101\n"                                        // no SQL after timestamp
      "not-a-time SELECT * FROM b\n"                 // bad timestamp
      "####42\n"                                     // one junk token
      "99999999999999999999999 SELECT * FROM c\n"    // overflowing timestamp
      "102 SELECT * FROM d\n"
      "\n";                                          // blank lines are fine
  ParsedQueryLog parsed = ParseQueryLogLenient(text);
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.rejected.no_sql, 2u);
  EXPECT_EQ(parsed.rejected.bad_timestamp, 2u);
  EXPECT_EQ(parsed.rejected.total(), 4u);
  EXPECT_EQ(parsed.first_bad_line, 2u);
  EXPECT_NE(parsed.first_error.find("log line 2"), std::string::npos)
      << parsed.first_error;
  EXPECT_EQ(parsed.entries[0].timestamp, 100);
  EXPECT_EQ(parsed.entries[1].timestamp, 102);
}

TEST(ParseQueryLogLenientTest, CleanLogHasNoRejections) {
  ParsedQueryLog parsed =
      ParseQueryLogLenient("100 SELECT 1\n2024-01-02 03:04:05 SELECT 2\n");
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.rejected.total(), 0u);
  EXPECT_EQ(parsed.first_bad_line, 0u);
  EXPECT_TRUE(parsed.first_error.empty());
}

TEST(ParseQueryLogTest, StrictParseFailsWithTheFirstLenientError) {
  const std::string text = "100 SELECT 1\nbogus SELECT 2\n";
  auto strict = ParseQueryLog(text);
  ASSERT_FALSE(strict.ok());
  ParsedQueryLog lenient = ParseQueryLogLenient(text);
  EXPECT_EQ(strict.status().message(), lenient.first_error);
}

// Pins of the lenient parser's exact output: entries, counters and the
// first error, line numbers counting blank and CRLF lines.
void ExpectEntries(const ParsedQueryLog& parsed,
                   const std::vector<LogEntry>& want) {
  ASSERT_EQ(parsed.entries.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(parsed.entries[i].timestamp, want[i].timestamp) << "entry " << i;
    EXPECT_EQ(parsed.entries[i].sql, want[i].sql) << "entry " << i;
  }
}

TEST(ParseQueryLogLenientTest, CrlfLinesLoseTheirCarriageReturn) {
  ParsedQueryLog parsed =
      ParseQueryLogLenient("100 SELECT 1\r\n\r\n101 SELECT  2 \r\n102\r\n");
  ExpectEntries(parsed, {{100, "SELECT 1"}, {101, "SELECT  2"}});
  EXPECT_EQ(parsed.rejected.no_sql, 1u);
  EXPECT_EQ(parsed.rejected.bad_timestamp, 0u);
  EXPECT_EQ(parsed.first_bad_line, 4u);
  EXPECT_EQ(parsed.first_error, "log line 4: no SQL after timestamp");
}

TEST(ParseQueryLogLenientTest, BlankLinesAreSkippedButCounted) {
  ParsedQueryLog parsed =
      ParseQueryLogLenient("\n  \t \n100 SELECT 1\n\nnot-a-time SELECT 2\n\n");
  ExpectEntries(parsed, {{100, "SELECT 1"}});
  EXPECT_EQ(parsed.rejected.no_sql, 0u);
  EXPECT_EQ(parsed.rejected.bad_timestamp, 1u);
  EXPECT_EQ(parsed.first_bad_line, 5u);
  EXPECT_EQ(parsed.first_error, "log line 5: bad timestamp");
  ParsedQueryLog empty = ParseQueryLogLenient("");
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_EQ(empty.rejected.total(), 0u);
}

TEST(ParseQueryLogLenientTest, MissingFinalNewlineKeepsTheLastLine) {
  ParsedQueryLog parsed = ParseQueryLogLenient("100 SELECT 1\n101 SELECT 2");
  ExpectEntries(parsed, {{100, "SELECT 1"}, {101, "SELECT 2"}});
  EXPECT_EQ(parsed.rejected.total(), 0u);
  ParsedQueryLog last_bad = ParseQueryLogLenient("100 SELECT 1\n101");
  ExpectEntries(last_bad, {{100, "SELECT 1"}});
  EXPECT_EQ(last_bad.first_error, "log line 2: no SQL after timestamp");
}

TEST(ParseQueryLogLenientTest, TwoFieldDatetimes) {
  ParsedQueryLog parsed = ParseQueryLogLenient(
      "2024-01-02 03:04:05 SELECT 1\n"
      "2024-01-02T03:04:05 SELECT 2\n"
      "2016-11-29 10:00:00 UPDATE t SET x = 1\n"
      "2024-01-02 junk SELECT 3\n"
      "2024-13-02 03:04:05 SELECT 4\n"
      "2024-01-02 03:04:05\n");
  ExpectEntries(parsed, {{1704164645, "SELECT 1"},
                         {1704164645, "SELECT 2"},
                         {1480413600, "UPDATE t SET x = 1"}});
  // A date and time with nothing after them is two fields that do not parse
  // as one: a bad timestamp, not a missing statement.
  EXPECT_EQ(parsed.rejected.bad_timestamp, 3u);
  EXPECT_EQ(parsed.rejected.no_sql, 0u);
  EXPECT_EQ(parsed.first_bad_line, 4u);
  EXPECT_EQ(parsed.first_error, "log line 4: bad timestamp");
}

TEST(ParseQueryLogLenientTest, OverflowingAndSignedEpochsAreBadTimestamps) {
  ParsedQueryLog parsed = ParseQueryLogLenient(
      "9223372036854775807 SELECT 1\n"
      "9223372036854775808 SELECT 2\n"
      "99999999999999999999999 SELECT * FROM c\n"
      "-5 SELECT 3\n"
      "+5 SELECT 4\n"
      "0005 SELECT 5\n");
  ExpectEntries(parsed, {{9223372036854775807, "SELECT 1"}, {5, "SELECT 5"}});
  EXPECT_EQ(parsed.rejected.bad_timestamp, 4u);
  EXPECT_EQ(parsed.first_bad_line, 2u);
  EXPECT_EQ(parsed.first_error, "log line 2: bad timestamp");
}

TEST(ParseQueryLogLenientTest, MissingSqlField) {
  ParsedQueryLog parsed = ParseQueryLogLenient(
      "100\n"
      "100   \n"
      "100\t\n"
      "100\tSELECT 1\n"
      "100  SELECT 2\n");
  // Only a space separates the fields: after a tab the line has one field
  // too many to be a timestamp, and a second space stays in the statement.
  ExpectEntries(parsed, {{100, " SELECT 2"}});
  EXPECT_EQ(parsed.rejected.no_sql, 3u);
  EXPECT_EQ(parsed.rejected.bad_timestamp, 1u);
  EXPECT_EQ(parsed.first_bad_line, 1u);
  EXPECT_EQ(parsed.first_error, "log line 1: no SQL after timestamp");
}

TEST(TraceExtractorTest, IngestLenientCountsRejectedStatements) {
  TraceExtractor ex(ExtractionOptions{});
  EXPECT_TRUE(ex.IngestLenient({0, "SELECT * FROM t WHERE id = 1"}));
  std::string nul_sql = "SELECT ";
  nul_sql += '\0';
  nul_sql += "FROM t";
  EXPECT_FALSE(ex.IngestLenient({10, nul_sql}));
  EXPECT_FALSE(ex.IngestLenient({20, "SELECT 'truncat"}));
  EXPECT_TRUE(ex.IngestLenient({30, "SELECT * FROM t WHERE id = 2"}));
  EXPECT_EQ(ex.entry_count(), 2u);
  EXPECT_EQ(ex.rejected_statements(), 2u);
  EXPECT_EQ(ex.registry().size(), 1u);  // both good statements share a template
}

}  // namespace
}  // namespace dbaugur::trace
