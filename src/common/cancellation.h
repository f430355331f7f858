// Cooperative cancellation primitive.
//
// A CancelToken is a one-way latch shared between a controller (the retrain
// watchdog, a deadline enforcer, a shutdown path) and a worker running a long
// computation. The controller calls Cancel(reason) once; the worker polls
// cancelled() at natural checkpoints — member-fit boundaries, loop
// iterations, fault-point sleeps — and unwinds with Status::Cancelled when it
// observes the latch. Cancellation is advisory, never preemptive: a worker
// that ignores the token simply finishes late, and a worker that honors it
// leaves all externally visible state exactly as it was before the cancelled
// operation started (the serving layer relies on this: a cancelled retrain
// never disturbs the published snapshot).
//
//   CancelToken token;                    // controller + worker share this
//   // worker, inside the hot loop:
//   if (token.cancelled()) return CancelledStatus(token, "retrain");
//   // controller, on deadline overrun:
//   token.Cancel("watchdog: shard 3 exceeded 0.5s deadline");
//
// cancelled() is a single acquire load — cheap enough to poll per member
// fit. The reason string is guarded by a leaf mutex (never held across any
// other lock) so Cancel can race with reason() safely; the first Cancel wins
// and later calls are no-ops, so the surfaced reason names the original
// trigger, not the last writer.

#pragma once

#include <atomic>
#include <string>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dbaugur {

/// One-way cancellation latch with a human-readable reason. Thread-safe;
/// reusable via Reset() between operations (caller must guarantee no worker
/// still polls the token across a Reset).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Latches the token. The first call records `reason`; later calls are
  /// no-ops (the original trigger stays visible). Safe from any thread.
  void Cancel(const std::string& reason) DBAUGUR_EXCLUDES(mu_);

  /// True once Cancel has been called (acquire load; pairs with the release
  /// store in Cancel, so a true result also publishes the reason).
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// The first Cancel's reason; empty while not cancelled.
  std::string reason() const DBAUGUR_EXCLUDES(mu_);

  /// Re-arms the token for a new operation. Not synchronized against
  /// concurrent Cancel/cancelled — callers sequence it between operations
  /// (the retrain worker pool resets per-task tokens between cycles, after
  /// every worker has quiesced).
  void Reset() DBAUGUR_EXCLUDES(mu_);

 private:
  std::atomic<bool> cancelled_{false};
  /// Leaf lock guarding only the reason string; never held while calling out.
  mutable Mutex mu_;
  std::string reason_ DBAUGUR_GUARDED_BY(mu_);
};

/// Builds the Status a worker returns when it observes a cancelled token:
/// "Cancelled: <what> cancelled: <token reason>".
Status CancelledStatus(const CancelToken& token, const std::string& what);

}  // namespace dbaugur
