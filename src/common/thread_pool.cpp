#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/contracts.h"

namespace dbaugur {

/// One ParallelFor's shared state. The calling thread and every queued
/// helper run hold a reference; a helper that starts after the range is
/// fully claimed returns without reading `body`, which dies with the call.
struct ThreadPool::Call {
  Call(size_t n_in, size_t grain_in,
       const std::function<void(size_t, size_t)>* body_in)
      : n(n_in), grain(grain_in), body(body_in) {}
  const size_t n;
  const size_t grain;
  const std::function<void(size_t, size_t)>* const body;
  std::atomic<size_t> next{0};  ///< First unclaimed index.
  std::atomic<size_t> done{0};  ///< Indices whose chunk has returned.
  Mutex mu;                     ///< Pairs with cv for the caller's one wait.
  CondVar cv;
};

size_t DefaultThreadCount() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

ThreadPool::ThreadPool(size_t threads) : size_(threads) {
  DBAUGUR_CHECK_GE(threads, size_t{1},
                   "ThreadPool needs at least one thread (the caller)");
  workers_.reserve(threads - 1);
  for (size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Call> call;
    {
      MutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(&mu_);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      call = std::move(queue_.front());
      queue_.pop_front();
    }
    RunChunks(call.get());
  }
}

void ThreadPool::RunChunks(Call* call) {
  for (;;) {
    const size_t b =
        call->next.fetch_add(call->grain, std::memory_order_relaxed);
    if (b >= call->n) return;
    const size_t len = std::min(call->grain, call->n - b);
    (*call->body)(b, b + len);
    // The release half publishes this chunk's writes to the caller, whose
    // acquire load reads the last of these increments.
    if (call->done.fetch_add(len, std::memory_order_acq_rel) + len == call->n) {
      MutexLock lock(&call->mu);
      call->cv.NotifyAll();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  auto call = std::make_shared<Call>(n, grain, &body);
  // The calling thread is one of the lanes, so one helper per further chunk
  // at most; a one-lane pool has none and runs every chunk here, in order.
  const size_t helpers = std::min(workers_.size(), (n - 1) / grain);
  if (helpers > 0) {
    {
      MutexLock lock(&mu_);
      queue_.insert(queue_.end(), helpers, call);
    }
    for (size_t i = 0; i < helpers; ++i) work_cv_.NotifyOne();
  }
  RunChunks(call.get());
  // Every index is claimed; wait for the chunks other lanes still run. Those
  // lanes are running, not queued, so this waits on work in progress only.
  MutexLock lock(&call->mu);
  while (call->done.load(std::memory_order_acquire) < n) {
    call->cv.Wait(&call->mu);
  }
}

}  // namespace dbaugur
