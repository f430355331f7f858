// Cooperative cancellation primitive.
//
// A CancelToken is a one-way latch shared between a controller (a shutdown
// path, a caller that gives up) and a worker running a long computation. It
// may also carry a deadline, set at construction: any poll after the
// deadline reads cancelled, with the reason given next to the deadline, so a
// per-task deadline needs no thread to supervise it. The worker polls
// cancelled() at natural checkpoints — member-fit boundaries, loop
// iterations, fault-point sleeps — and unwinds with Status::Cancelled when it
// observes the latch. Cancellation is advisory, never preemptive: a worker
// that ignores the token simply finishes late, and a worker that honors it
// leaves all externally visible state exactly as it was before the cancelled
// operation started (the serving layer relies on this: a cancelled retrain
// never disturbs the published snapshot).
//
//   // The sharded service arms one token per shard retrain as it starts:
//   CancelToken token(std::chrono::steady_clock::now() + budget,
//                     "watchdog: shard 3 retrain exceeded its 0.5s deadline");
//   // worker, inside the hot loop:
//   if (token.cancelled()) return CancelledStatus(token, "retrain");
//   // any other thread, to stop the worker early:
//   token.Cancel("shutting down");
//
// cancelled() is a single acquire load, plus a steady-clock read while a
// deadline is armed and not yet passed — cheap enough to poll per member
// fit. The reason string is guarded by a leaf mutex (never held across any
// other lock) so Cancel can race with reason() safely. Whichever comes first,
// a Cancel or a poll that finds the deadline passed, latches the token; later
// ones are no-ops, so the surfaced reason names the original trigger, not the
// last writer. A token is used for one operation: construct a new one for
// the next.

#pragma once

#include <atomic>
#include <chrono>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dbaugur {

/// One-way cancellation latch with a human-readable reason and an optional
/// deadline. Thread-safe.
class CancelToken {
 public:
  /// A token only an explicit Cancel latches.
  CancelToken() = default;
  /// A token that also latches, with `deadline_reason`, once `deadline`
  /// passes.
  CancelToken(std::chrono::steady_clock::time_point deadline,
              std::string deadline_reason);
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Latches the token. The first trigger records its reason; later calls,
  /// and calls after the deadline passed, are no-ops (the original trigger
  /// stays visible). Safe from any thread.
  void Cancel(const std::string& reason) DBAUGUR_EXCLUDES(mu_);

  /// True once Cancel has been called or the deadline has passed (acquire
  /// load; pairs with the release store that latches, so a true result also
  /// publishes the reason).
  bool cancelled() const DBAUGUR_EXCLUDES(mu_);

  /// The first trigger's reason; empty while not cancelled.
  std::string reason() const DBAUGUR_EXCLUDES(mu_);

 private:
  /// Records `reason` and sets the flag unless the token already latched.
  void Latch(const std::string& reason) const DBAUGUR_EXCLUDES(mu_);

  const bool has_deadline_ = false;
  const std::chrono::steady_clock::time_point deadline_{};
  const std::string deadline_reason_;
  /// Mutable: a const poll that finds the deadline passed latches it.
  mutable std::atomic<bool> cancelled_{false};
  /// Leaf lock guarding only the reason string; never held while calling out.
  mutable Mutex mu_;
  mutable std::string reason_ DBAUGUR_GUARDED_BY(mu_);
};

/// Builds the Status a worker returns when it observes a cancelled token:
/// "Cancelled: <what> cancelled: <token reason>".
Status CancelledStatus(const CancelToken& token, const std::string& what);

}  // namespace dbaugur
