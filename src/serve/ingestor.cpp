#include "serve/ingestor.h"

#include <cmath>
#include <limits>

#include "common/contracts.h"
#include "common/fault_injection.h"

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

}  // namespace dbaugur::serve
