#include "serve/ingestor.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/contracts.h"
#include "common/fault_injection.h"
#include "trace/extractor.h"

namespace dbaugur::serve {

TraceIngestor::TraceIngestor(const IngestorOptions& opts) : opts_(opts) {
  DBAUGUR_CHECK(opts_.capacity >= 1, "TraceIngestor capacity must be >= 1");
  queue_.reserve(opts_.capacity);
}

bool TraceIngestor::Offer(const TraceEvent& event) {
  TraceEvent e = event;
  if (DBAUGUR_FAULT_POINT("serve.ingest.corrupt")) {
    // Garbage-row simulation: the corrupted count must be caught by the
    // quarantine checks below, never reach the binner.
    e.count = std::numeric_limits<double>::quiet_NaN();
  }
  if (e.template_id >= opts_.max_templates) {
    dropped_template_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (!std::isfinite(e.count)) {
    dropped_nonfinite_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (e.count < 0.0) {
    dropped_negative_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Absolute skew bounds come before the relative lateness check so a
  // garbage timestamp is classified by *what is wrong with it*, and so a
  // far-future event can never poison max_timestamp_ below.
  if (opts_.min_timestamp_seconds >= 0 &&
      e.timestamp < opts_.min_timestamp_seconds) {
    dropped_pre_epoch_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (opts_.max_timestamp_seconds >= 0 &&
      e.timestamp > opts_.max_timestamp_seconds) {
    dropped_future_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  {
    MutexLock lock(&mu_);
    // Overflow-safe cutoff: with the absolute bounds disabled,
    // max_timestamp_ - lateness could wrap (e.g. INT64_MIN reference). A
    // wrapped cutoff means "nothing can be stale", not UB.
    int64_t cutoff = 0;
    if (opts_.max_lateness_seconds >= 0 && any_accepted_ &&
        !__builtin_sub_overflow(max_timestamp_, opts_.max_lateness_seconds,
                                &cutoff) &&
        e.timestamp < cutoff) {
      dropped_stale_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (queue_.size() >= opts_.capacity) {
      dropped_full_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    queue_.push_back(e);
    if (!any_accepted_ || e.timestamp > max_timestamp_) {
      max_timestamp_ = e.timestamp;
      any_accepted_ = true;
    }
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

IngestDropStats TraceIngestor::drop_stats() const {
  IngestDropStats s;
  s.full = dropped_full_.load(std::memory_order_relaxed);
  s.template_id = dropped_template_.load(std::memory_order_relaxed);
  s.nonfinite = dropped_nonfinite_.load(std::memory_order_relaxed);
  s.negative = dropped_negative_.load(std::memory_order_relaxed);
  s.stale = dropped_stale_.load(std::memory_order_relaxed);
  s.pre_epoch = dropped_pre_epoch_.load(std::memory_order_relaxed);
  s.future = dropped_future_.load(std::memory_order_relaxed);
  return s;
}

size_t TraceIngestor::size() const {
  MutexLock lock(&mu_);
  return queue_.size();
}

size_t TraceIngestor::Drain(std::vector<TraceEvent>* out) {
  std::vector<TraceEvent> batch;
  batch.reserve(opts_.capacity);
  {
    MutexLock lock(&mu_);
    queue_.swap(batch);
  }
  out->insert(out->end(), batch.begin(), batch.end());
  return batch.size();
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
  bins_[template_id][bin] += count;
  if (!any_) {
    any_ = true;
    min_bin_ = max_bin_ = bin;
  } else {
    if (bin < min_bin_) min_bin_ = bin;
    if (bin > max_bin_) max_bin_ = bin;
  }
}

size_t TraceBinner::bin_count() const {
  return any_ ? trace::BinSpan(min_bin_, max_bin_) : 0;
}

StatusOr<std::vector<ts::Series>> TraceBinner::Traces() const {
  if (!any_) {
    return Status::FailedPrecondition("TraceBinner: no events folded yet");
  }
  size_t len = bin_count();
  // With quarantine upstream this should be unreachable; it is the
  // defense-in-depth stop against a garbage timestamp.
  if (len > trace::kMaxMaterializedBins) {
    return Status::FailedPrecondition(
        "TraceBinner: bin range too large to materialize (" +
        std::to_string(len) + " bins) — garbage timestamp in the history?");
  }
  ts::Timestamp start = min_bin_ * interval_;
  std::vector<ts::Series> traces;
  traces.reserve(bins_.size());
  for (const auto& [tid, tbins] : bins_) {
    std::vector<double> values(len, 0.0);
    for (const auto& [bin, count] : tbins) {
      values[static_cast<size_t>(bin - min_bin_)] = count;
    }
    traces.emplace_back(start, interval_, std::move(values),
                        "template" + std::to_string(tid));
  }
  return traces;
}

void TraceBinner::Save(BufWriter* w) const {
  w->I64(interval_);
  w->U8(any_ ? 1 : 0);
  w->I64(min_bin_);
  w->I64(max_bin_);
  w->U64(bins_.size());
  for (const auto& [tid, tbins] : bins_) {
    w->U32(tid);
    w->U64(tbins.size());
    for (const auto& [bin, count] : tbins) {
      w->I64(bin);
      w->F64(count);
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
  std::map<uint32_t, std::map<int64_t, double>> bins;
  for (uint64_t t = 0; t < templates; ++t) {
    uint32_t tid = 0;
    uint64_t n = 0;
    if (!r->U32(&tid) || !r->U64(&n)) return corrupt();
    auto& tbins = bins[tid];
    for (uint64_t i = 0; i < n; ++i) {
      int64_t bin = 0;
      double count = 0.0;
      if (!r->I64(&bin) || !r->F64(&count)) return corrupt();
      if (any == 1 && (bin < min_bin || bin > max_bin)) {
        return Status::InvalidArgument("TraceBinner: bin outside saved range");
      }
      tbins[bin] = count;
    }
  }
  interval_ = interval;
  any_ = any == 1;
  min_bin_ = min_bin;
  max_bin_ = max_bin;
  bins_ = std::move(bins);
  return Status::OK();
}

}  // namespace dbaugur::serve
