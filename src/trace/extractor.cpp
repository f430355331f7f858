#include "trace/extractor.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <ctime>
#include <string_view>

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

Status TraceExtractor::Ingest(const LogEntry& entry) {
  if (opts_.interval_seconds <= 0) {
    return Status::InvalidArgument("interval must be positive");
  }
  auto id = registry_.Record(entry.sql);
  if (!id.ok()) return id.status();
  if (*id >= bins_.size()) bins_.resize(*id + 1);
  int64_t bin = entry.timestamp / opts_.interval_seconds;
  if (entry.timestamp < 0 && entry.timestamp % opts_.interval_seconds != 0) {
    --bin;  // floor division for negative timestamps
  }
  bins_[*id][bin] += 1.0;
  if (max_bin_ < min_bin_) {
    min_bin_ = max_bin_ = bin;
  } else {
    min_bin_ = std::min(min_bin_, bin);
    max_bin_ = std::max(max_bin_, bin);
  }
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

StatusOr<std::vector<ts::Series>> TraceExtractor::TemplateTraces() const {
  if (entry_count_ == 0) {
    return Status::FailedPrecondition("no log entries ingested");
  }
  const size_t len = BinSpan(min_bin_, max_bin_);
  if (len > kMaxMaterializedBins) {
    return Status::FailedPrecondition(
        "trace: bin range too large to materialize (" + std::to_string(len) +
        " bins) — garbage timestamp in the log?");
  }
  std::vector<ts::Series> out;
  out.reserve(bins_.size());
  for (size_t id = 0; id < bins_.size(); ++id) {
    std::vector<double> values(len, 0.0);
    for (const auto& [bin, count] : bins_[id]) {
      values[static_cast<size_t>(bin - min_bin_)] = count;
    }
    out.emplace_back(min_bin_ * opts_.interval_seconds, opts_.interval_seconds,
                     std::move(values), "template_" + std::to_string(id));
  }
  return out;
}

}  // namespace dbaugur::trace
