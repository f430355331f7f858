// Small fixed-size thread pool: the only owner of worker threads in src/.
//
// Design constraints (see descender.cpp): the pool must be deterministic in
// its *results* regardless of scheduling — callers write to disjoint
// per-index slots and merge in index order — and a pool of size 1 must run
// everything inline on the calling thread, spawning nothing, so single-core
// configurations behave exactly like the pre-pool code.
//
// ParallelFor may be called from several threads at once and from inside a
// body running on the same pool. Every call runs chunks on its calling
// thread and waits only for the chunks of its own range, so concurrent and
// nested calls complete: the sharded service drains a cycle's shards on one
// pool while every concurrent shard retrain shares a second pool for its
// clustering sweep and member fits.
//
// Locking discipline (compile-checked under Clang, see
// common/thread_annotations.h): mu_ guards the queue of pending helper runs
// and the stop flag. Chunks are claimed and counted with atomics; a call
// takes its own lock only once, to wait for its last chunk.

#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace dbaugur {

/// std::thread::hardware_concurrency() clamped to >= 1 (the standard allows
/// it to return 0 when the count is unknowable).
size_t DefaultThreadCount();

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the caller itself is the remaining lane
  /// (ParallelFor participates). Aborts via DBAUGUR_CHECK when threads == 0.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (workers + calling thread).
  size_t size() const { return size_; }

  /// Runs body(begin, end) over chunks of `grain` indices covering [0, n)
  /// and returns once every chunk has run. Chunks are claimed in index
  /// order, dynamically (rows of a triangular sweep have uneven cost), by the
  /// calling thread and by any worker that is free, so bodies must not depend
  /// on execution order. With size() == 1 the chunks run inline, in order,
  /// on the calling thread. One caller never has more than size() bodies
  /// running at once. Safe to call concurrently from several threads and
  /// from inside a body on the same pool.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body)
      DBAUGUR_EXCLUDES(mu_);

 private:
  struct Call;
  /// Claims and runs chunks of `call` until its range is fully claimed.
  static void RunChunks(Call* call);
  void WorkerLoop() DBAUGUR_EXCLUDES(mu_);

  size_t size_;
  std::vector<std::thread> workers_;  // set in ctor, joined in dtor only
  Mutex mu_;
  /// One entry per helper run a ParallelFor asked for. A worker that pops an
  /// entry whose range is already claimed returns at once.
  std::deque<std::shared_ptr<Call>> queue_ DBAUGUR_GUARDED_BY(mu_);
  CondVar work_cv_;
  bool stop_ DBAUGUR_GUARDED_BY(mu_) = false;
};

}  // namespace dbaugur
