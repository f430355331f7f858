// Deadline-supervised worker pool for the sharded retrain scheduler.
//
// PR 9's scheduler computed a deterministic priority order and drained it by
// spawning threads per cycle; this pool makes that execution layer persistent
// and robust. A fixed set of worker threads lives for the service's lifetime;
// each RunCycle hands them one cycle's schedule, and workers claim shard ids
// in exactly the scheduled order from a shared FIFO, so "hot shards first"
// holds at any worker count.
//
// Deadline + watchdog: every task carries its own CancelToken and, when a
// per-retrain deadline is configured, a deadline measured from the moment its
// worker picks it up. The *calling* thread acts as the watchdog for the
// duration of RunCycle: it sleeps until the earliest running task's deadline
// (or a poll quantum), cancels any task that overran — which covers both slow
// retrains and genuinely hung workers, since a hung retrain simply never
// reports done — and keeps supervising until every task completes. Because
// cancellation is cooperative (tokens are polled at member-fit granularity;
// see core::BuildTrainedState), a cancelled worker unwinds at its next
// checkpoint, typically well within one deadline of the overrun, and the
// cycle as a whole can never stall the publish loop behind one stuck shard.
// A workload that ignores its token entirely would still block RunCycle —
// cooperative cancellation bounds stalls at checkpoints, it cannot preempt.
//
// Determinism: the pool adds no scheduling decisions of its own — the order
// workers *start* shards is the scheduler's order, shards share no mutable
// state, and each shard's results depend only on its own persisted seed
// stream. Published snapshots for the shards that complete are therefore
// bit-identical to a sequential drain of the same schedule (pinned by
// tests/serve_workers_test.cpp); only completion timing varies.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dbaugur::serve {

/// Outcome of one scheduled shard retrain within a cycle.
struct RetrainTaskResult {
  size_t shard_id = 0;
  /// True when the task's token was latched (watchdog deadline overrun)
  /// before the worker finished — the retrain unwound without publishing.
  bool cancelled = false;
  double seconds = 0.0;        ///< Wall time on the worker, start to unwind.
  std::string cancel_reason;   ///< Token reason; empty unless cancelled.
};

/// One RunCycle's results, in schedule order.
struct RetrainCycleReport {
  std::vector<RetrainTaskResult> tasks;
  size_t completed = 0;  ///< Tasks that ran to completion.
  size_t cancelled = 0;  ///< Tasks the watchdog cancelled.
};

class RetrainWorkerPool {
 public:
  /// Retrains shard `shard_id` on worker `worker_idx`, honoring `cancel`
  /// (never null) at its checkpoints. The returned status is informational —
  /// per-shard failures are recorded shard-side and must not abort the cycle.
  using WorkFn = std::function<Status(size_t shard_id, size_t worker_idx,
                                      const CancelToken* cancel)>;

  /// Spawns `workers` (>= 1, DBAUGUR_CHECK) persistent threads.
  explicit RetrainWorkerPool(size_t workers);
  ~RetrainWorkerPool();
  RetrainWorkerPool(const RetrainWorkerPool&) = delete;
  RetrainWorkerPool& operator=(const RetrainWorkerPool&) = delete;

  size_t workers() const { return threads_.size(); }

  /// Drains `order` across the pool, each task under `deadline_seconds`
  /// (<= 0 disables the watchdog), and blocks until every task has finished
  /// or unwound from cancellation. The calling thread supervises as the
  /// watchdog while it waits. Not reentrant (DBAUGUR_CHECK): one cycle at a
  /// time, matching the scheduler's cycle_mu_ serialization.
  RetrainCycleReport RunCycle(const std::vector<size_t>& order,
                              double deadline_seconds, const WorkFn& work)
      DBAUGUR_EXCLUDES(mu_);

 private:
  /// Per-task supervision record. The token is internally synchronized (the
  /// worker polls it lock-free while the watchdog cancels it); every other
  /// field is accessed under mu_. Heap-allocated so workers can keep a stable
  /// pointer across the unlock around the work callback.
  struct Task {
    size_t shard_id = 0;
    enum class State { kPending, kRunning, kDone };
    State state = State::kPending;
    std::chrono::steady_clock::time_point deadline{};  ///< Set when started.
    bool has_deadline = false;
    CancelToken token;
    double seconds = 0.0;
  };

  void WorkerLoop(size_t worker_idx) DBAUGUR_EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVar work_cv_;  ///< Workers wait here for tasks (or stop).
  CondVar done_cv_;  ///< The watchdog waits here for completions.
  bool stop_ DBAUGUR_GUARDED_BY(mu_) = false;
  bool cycle_active_ DBAUGUR_GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<Task>> tasks_ DBAUGUR_GUARDED_BY(mu_);
  const WorkFn* work_ DBAUGUR_GUARDED_BY(mu_) = nullptr;
  double deadline_seconds_ DBAUGUR_GUARDED_BY(mu_) = 0.0;
  size_t next_ DBAUGUR_GUARDED_BY(mu_) = 0;       ///< Next unclaimed task.
  size_t remaining_ DBAUGUR_GUARDED_BY(mu_) = 0;  ///< Tasks not yet done.
  /// Set in the constructor, joined in the destructor only. (This file and
  /// common/thread_pool are the only places src/ may own raw std::thread —
  /// enforced by the raw-thread lint rule.)
  std::vector<std::thread> threads_;
};

}  // namespace dbaugur::serve
