// Streaming ingest for the online serving layer.
//
// Producers (query routers, log shippers) hand the service raw
// (template_id, timestamp, count) events from many threads at once.
// TraceIngestor is the bounded MPSC hand-off: Offer() enqueues under a short
// critical section and never blocks — when the queue is full the event is
// counted as dropped and the producer moves on (load shedding beats
// backpressure for telemetry). The retrain thread periodically Drain()s the
// queue and Fold()s the events into a trace::TraceBinner, the same trace
// store the offline trace::TraceExtractor bins parsed query logs into.

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "trace/extractor.h"
#include "ts/series.h"

namespace dbaugur::serve {

// The serving layer's names for the shared trace store.
using trace::TraceBinner;
using trace::TraceEvent;

/// Ingest queue configuration.
struct IngestorOptions {
  size_t capacity = 4096;       ///< Max buffered events before drops.
  size_t max_templates = 4096;  ///< Events with template_id >= this drop.
  /// Quarantine bound for out-of-order timestamps: an event more than this
  /// many seconds older than the newest timestamp already accepted is
  /// dropped (a garbage timestamp would otherwise explode the binner's
  /// zero-filled range). Negative disables the check.
  int64_t max_lateness_seconds = 24 * 3600;
  /// Absolute clock-skew bounds. Events timestamped before
  /// min_timestamp_seconds (default: the epoch) or after
  /// max_timestamp_seconds (default 4102444800 = 2100-01-01T00:00:00Z) are
  /// quarantined. Without the upper bound a single far-future event would
  /// become the lateness reference and stale-drop every honest event after
  /// it, besides exploding the binner's zero-filled range. Negative disables
  /// the respective check.
  int64_t min_timestamp_seconds = 0;
  int64_t max_timestamp_seconds = 4102444800;
};

/// Per-category drop counters (each monotonic since construction).
struct IngestDropStats {
  uint64_t full = 0;         ///< Queue at capacity (load shedding).
  uint64_t template_id = 0;  ///< template_id >= max_templates.
  uint64_t nonfinite = 0;    ///< NaN / ±inf count (quarantined).
  uint64_t negative = 0;     ///< Negative count (quarantined).
  uint64_t stale = 0;        ///< Timestamp older than lateness bound.
  uint64_t pre_epoch = 0;    ///< Timestamp before min_timestamp_seconds.
  uint64_t future = 0;       ///< Timestamp after max_timestamp_seconds.

  uint64_t total() const {
    return full + template_id + nonfinite + negative + stale + pre_epoch +
           future;
  }
  /// Drops caused by malformed input rather than backpressure.
  uint64_t quarantined() const {
    return nonfinite + negative + stale + pre_epoch + future;
  }
  /// Per-class sum (several queues' drops).
  IngestDropStats& operator+=(const IngestDropStats& o) {
    full += o.full;
    template_id += o.template_id;
    nonfinite += o.nonfinite;
    negative += o.negative;
    stale += o.stale;
    pre_epoch += o.pre_epoch;
    future += o.future;
    return *this;
  }
};

/// Bounded multi-producer single-consumer event queue. Offer never blocks;
/// Drain moves everything buffered to the consumer in arrival order. Garbage
/// input (non-finite or negative counts, wildly out-of-order timestamps) is
/// quarantined at the door with dedicated counters so one bad producer cannot
/// poison the training history.
class TraceIngestor {
 public:
  /// Aborts (DBAUGUR_CHECK) when opts.capacity == 0.
  explicit TraceIngestor(const IngestorOptions& opts);

  /// Thread-safe, non-blocking enqueue. Returns false (and counts the drop in
  /// its category) when the queue is full, template_id >= max_templates, the
  /// count is non-finite or negative, the timestamp falls outside the
  /// absolute [min_timestamp_seconds, max_timestamp_seconds] skew bounds, or
  /// the timestamp is staler than max_lateness_seconds. Quarantined events
  /// never become the lateness reference.
  bool Offer(const TraceEvent& event) DBAUGUR_EXCLUDES(mu_);

  /// Moves all buffered events into *out (appended), returning how many.
  /// Single consumer: callers serialize Drain externally.
  size_t Drain(std::vector<TraceEvent>* out) DBAUGUR_EXCLUDES(mu_);

  /// Events accepted / dropped since construction (monotonic). dropped() is
  /// the sum over every drop category.
  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t dropped() const { return drop_stats().total(); }
  IngestDropStats drop_stats() const;

  /// Buffered events awaiting Drain (point-in-time; takes the queue lock).
  size_t size() const DBAUGUR_EXCLUDES(mu_);

 private:
  IngestorOptions opts_;
  mutable Mutex mu_;
  std::vector<TraceEvent> queue_ DBAUGUR_GUARDED_BY(mu_);
  bool any_accepted_ DBAUGUR_GUARDED_BY(mu_) = false;
  /// Newest accepted timestamp (lateness quarantine reference point).
  ts::Timestamp max_timestamp_ DBAUGUR_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> dropped_full_{0};
  std::atomic<uint64_t> dropped_template_{0};
  std::atomic<uint64_t> dropped_nonfinite_{0};
  std::atomic<uint64_t> dropped_negative_{0};
  std::atomic<uint64_t> dropped_stale_{0};
  std::atomic<uint64_t> dropped_pre_epoch_{0};
  std::atomic<uint64_t> dropped_future_{0};
};

}  // namespace dbaugur::serve
