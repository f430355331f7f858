#include "trace/extractor.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <ctime>
#include <string_view>
#include <utility>

#include "common/contracts.h"

namespace dbaugur::trace {

StatusOr<ts::Timestamp> ParseTimestamp(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty timestamp");
  // Pure integer => epoch seconds.
  bool all_digits = std::all_of(text.begin(), text.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c));
  });
  if (all_digits) {
    // from_chars instead of stoll: a digit string too long for int64
    // ("99999999999999999999999") must be a clean InvalidArgument, not an
    // uncaught std::out_of_range terminating the process.
    int64_t v = 0;
    auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
      return Status::InvalidArgument("timestamp out of range: " +
                                     std::string(text));
    }
    return static_cast<ts::Timestamp>(v);
  }
  // "YYYY-MM-DD HH:MM:SS" or with 'T'; sscanf needs a NUL-terminated copy.
  const std::string str(text);
  int y, mo, d, h, mi, s;
  char sep;
  if (std::sscanf(str.c_str(), "%d-%d-%d%c%d:%d:%d", &y, &mo, &d, &sep, &h,
                  &mi, &s) == 7 &&
      (sep == ' ' || sep == 'T')) {
    if (mo < 1 || mo > 12 || d < 1 || d > 31 || h < 0 || h > 23 || mi < 0 ||
        mi > 59 || s < 0 || s > 60) {
      return Status::InvalidArgument("timestamp fields out of range: " + str);
    }
    std::tm tm{};
    tm.tm_year = y - 1900;
    tm.tm_mon = mo - 1;
    tm.tm_mday = d;
    tm.tm_hour = h;
    tm.tm_min = mi;
    tm.tm_sec = s;
    // timegm avoids timezone dependence.
    time_t t = timegm(&tm);
    if (t == static_cast<time_t>(-1)) {
      return Status::InvalidArgument("unrepresentable timestamp: " + str);
    }
    return static_cast<ts::Timestamp>(t);
  }
  return Status::InvalidArgument("unrecognized timestamp format: " + str);
}

ParsedQueryLog ParseQueryLogLenient(const std::string& text) {
  ParsedQueryLog out;
  out.entries.reserve(
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  size_t line_no = 0;
  auto reject = [&](uint64_t* counter, const char* what) {
    ++*counter;
    if (out.first_bad_line == 0) {
      out.first_bad_line = line_no;
      out.first_error = "log line " + std::to_string(line_no) + ": " + what;
    }
  };
  auto accept = [&](ts::Timestamp ts, std::string_view sql) {
    out.entries.push_back({ts, std::string(sql)});
  };
  // Lines as getline splits them: a final newline ends the last line rather
  // than opening an empty one.
  std::string_view rest(text);
  while (!rest.empty()) {
    const size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    ++line_no;
    // Trim.
    const size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) continue;
    line = line.substr(b, line.find_last_not_of(" \t\r") - b + 1);
    // Timestamp may be "DATE TIME SQL" (two fields) or "EPOCH SQL" /
    // "DATETTIME SQL" (one field).
    const size_t sp1 = line.find(' ');
    if (sp1 == std::string_view::npos) {
      reject(&out.rejected.no_sql, "no SQL after timestamp");
      continue;
    }
    auto t1 = ParseTimestamp(line.substr(0, sp1));
    if (t1.ok()) {
      accept(*t1, line.substr(sp1 + 1));
      continue;
    }
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp2 != std::string_view::npos) {
      auto t2 = ParseTimestamp(line.substr(0, sp2));
      if (t2.ok()) {
        accept(*t2, line.substr(sp2 + 1));
        continue;
      }
    }
    reject(&out.rejected.bad_timestamp, "bad timestamp");
  }
  return out;
}

StatusOr<std::vector<LogEntry>> ParseQueryLog(const std::string& text) {
  ParsedQueryLog parsed = ParseQueryLogLenient(text);
  if (parsed.rejected.total() > 0) {
    return Status::InvalidArgument(parsed.first_error);
  }
  return std::move(parsed.entries);
}

namespace {
// Floor division so pre-epoch timestamps bin consistently. The origin is
// fixed at the epoch: binning must not depend on the first event a
// particular service instance happened to see, or indices would shift after
// a Save/Load into a service with a different start (boundary events would
// then land one bin off).
int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

// Save's layout: a header of I64 interval, U8 any, I64 min and max bin and
// U64 template count; per template a U32 id and a U64 bin count; per bin an
// I64 bin and an F64 count.
constexpr size_t kHeaderBytes = 8 + 1 + 8 + 8 + 8;
constexpr size_t kTemplateRecordBytes = 4 + 8;
constexpr size_t kBinRecordBytes = 8 + 8;
}  // namespace

TraceBinner::TraceBinner(int64_t interval_seconds)
    : interval_(interval_seconds) {
  DBAUGUR_CHECK(interval_ > 0, "TraceBinner interval must be positive, got ",
                interval_);
}

int64_t TraceBinner::BinIndex(ts::Timestamp timestamp) const {
  return FloorDiv(timestamp, interval_);
}

void TraceBinner::Fold(const TraceEvent& event) {
  FoldBin(event.template_id, BinIndex(event.timestamp), event.count);
}

void TraceBinner::FoldBin(uint32_t template_id, int64_t bin, double count) {
  Run& run = runs_[template_id];
  // Arrivals come mostly in bin order: they add to the run's last bin or
  // append past it, and only a late event searches the run.
  auto at = run.end();
  if (!run.empty() && bin <= run.back().bin) {
    at = bin == run.back().bin
             ? at - 1
             : std::lower_bound(
                   run.begin(), run.end(), bin,
                   [](const BinCount& e, int64_t b) { return e.bin < b; });
  }
  if (at != run.end() && at->bin == bin) {
    at->count += count;
  } else {
    if (run.size() == run.capacity()) {
      // Grow by a quarter, not by doubling: at 17-64 bins per template a
      // doubled run costs 33-35 heap bytes per entry, this one 20-23.
      const size_t pos = static_cast<size_t>(at - run.begin());
      run.reserve(run.size() + run.size() / 4 + 1);
      at = run.begin() + static_cast<ptrdiff_t>(pos);
    }
    // 0.0 + count is what a value-initialized sum held, so a -0.0 count
    // stores +0.0.
    run.insert(at, BinCount{bin, 0.0 + count});
  }
  if (!any_) {
    any_ = true;
    min_bin_ = max_bin_ = bin;
  } else {
    if (bin < min_bin_) min_bin_ = bin;
    if (bin > max_bin_) max_bin_ = bin;
  }
}

size_t TraceBinner::bin_count() const {
  return any_ ? BinSpan(min_bin_, max_bin_) : 0;
}

StatusOr<std::vector<ts::Series>> TraceBinner::Traces() const {
  if (!any_) {
    return Status::FailedPrecondition("TraceBinner: no events folded yet");
  }
  size_t len = bin_count();
  // With quarantine upstream this should be unreachable; it is the
  // defense-in-depth stop against a garbage timestamp.
  if (len > kMaxMaterializedBins) {
    return Status::FailedPrecondition(
        "TraceBinner: bin range too large to materialize (" +
        std::to_string(len) + " bins) — garbage timestamp in the history?");
  }
  ts::Timestamp start = min_bin_ * interval_;
  std::vector<ts::Series> traces;
  traces.reserve(runs_.size());
  for (const auto& [tid, run] : runs_) {
    std::vector<double> values(len, 0.0);
    for (const BinCount& e : run) {
      values[static_cast<size_t>(e.bin - min_bin_)] = e.count;
    }
    traces.emplace_back(start, interval_, std::move(values),
                        "template" + std::to_string(tid));
  }
  return traces;
}

void TraceBinner::Save(BufWriter* w) const {
  size_t bytes = kHeaderBytes;
  for (const auto& [tid, run] : runs_) {
    bytes += kTemplateRecordBytes + kBinRecordBytes * run.size();
  }
  w->Reserve(bytes);
  w->I64(interval_);
  w->U8(any_ ? 1 : 0);
  w->I64(min_bin_);
  w->I64(max_bin_);
  w->U64(runs_.size());
  for (const auto& [tid, run] : runs_) {
    w->U32(tid);
    w->U64(run.size());
    for (const BinCount& e : run) {
      w->I64(e.bin);
      w->F64(e.count);
    }
  }
}

Status TraceBinner::Load(BufReader* r) {
  auto corrupt = [] {
    return Status::InvalidArgument("TraceBinner: truncated or corrupt state");
  };
  int64_t interval = 0;
  uint8_t any = 0;
  int64_t min_bin = 0;
  int64_t max_bin = 0;
  uint64_t templates = 0;
  if (!r->I64(&interval) || !r->U8(&any) || !r->I64(&min_bin) ||
      !r->I64(&max_bin) || !r->U64(&templates)) {
    return corrupt();
  }
  // Save writes no template before something is folded. Stored bins under
  // any = 0 would sit outside the range the next Fold starts, where Traces()
  // would write them past the end of its zero-filled vectors.
  if (interval <= 0 || any > 1 || (any == 1 && max_bin < min_bin) ||
      (any == 0 && templates != 0)) {
    return Status::InvalidArgument("TraceBinner: invalid header fields");
  }
  std::map<uint32_t, Run> runs;
  for (uint64_t t = 0; t < templates; ++t) {
    uint32_t tid = 0;
    uint64_t n = 0;
    if (!r->U32(&tid) || !r->U64(&n)) return corrupt();
    if (!runs.empty() && tid <= runs.rbegin()->first) {
      return Status::InvalidArgument(
          "TraceBinner: template ids not strictly ascending");
    }
    // The records must fit in what is left, so a corrupt count cannot
    // allocate.
    if (n > r->remaining() / kBinRecordBytes) return corrupt();
    Run& run = runs.emplace_hint(runs.end(), tid, Run())->second;
    run.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
      int64_t bin = 0;
      double count = 0.0;
      if (!r->I64(&bin) || !r->F64(&count)) return corrupt();
      if (any == 1 && (bin < min_bin || bin > max_bin)) {
        return Status::InvalidArgument("TraceBinner: bin outside saved range");
      }
      if (!run.empty() && bin <= run.back().bin) {
        return Status::InvalidArgument(
            "TraceBinner: bins not strictly ascending");
      }
      run.push_back({bin, count});
    }
  }
  interval_ = interval;
  any_ = any == 1;
  min_bin_ = min_bin;
  max_bin_ = max_bin;
  runs_ = std::move(runs);
  return Status::OK();
}

std::map<uint32_t, std::map<int64_t, double>> TraceBinner::bins() const {
  std::map<uint32_t, std::map<int64_t, double>> out;
  for (const auto& [tid, run] : runs_) {
    auto& per_bin = out.emplace_hint(out.end(), tid,
                                     std::map<int64_t, double>())->second;
    for (const BinCount& e : run) {
      per_bin.emplace_hint(per_bin.end(), e.bin, e.count);
    }
  }
  return out;
}

Status TraceExtractor::Ingest(const LogEntry& entry) {
  auto id = registry_.Record(entry.sql);
  if (!id.ok()) return id.status();
  binner_.Fold({static_cast<uint32_t>(*id), entry.timestamp, 1.0});
  ++entry_count_;
  return Status::OK();
}

bool TraceExtractor::IngestLenient(const LogEntry& entry) {
  Status st = Ingest(entry);
  if (st.ok()) return true;
  ++rejected_statements_;
  return false;
}

Status TraceExtractor::IngestLog(const std::vector<LogEntry>& entries) {
  for (const auto& e : entries) {
    DBAUGUR_RETURN_IF_ERROR(Ingest(e));
  }
  return Status::OK();
}

}  // namespace dbaugur::trace
