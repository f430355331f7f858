// Deterministic fault injection for robustness testing.
//
// Production code marks failure-prone spots with named *sites*:
//
//   if (DBAUGUR_FAULT_POINT("serve.retrain.build")) {
//     return Status::Internal("injected retrain failure");
//   }
//
// A site does nothing until a *schedule* is installed for its name, either
// programmatically (fault::Configure) or through the DBAUGUR_FAULT_SPEC
// environment variable (read once at process start). Schedules are fully
// deterministic so injected failures reproduce run-to-run:
//
//   site=n:3          fire on the first 3 hits of the site
//   site=at:0,4,5     fire on hit indices 0, 4 and 5 (0-based, per site)
//   site=p:0.25:99    fire each hit with probability 0.25 from a PRNG
//                     seeded with 99 (seed defaults to 42) — deterministic
//                     given the site's hit order
//
// Multiple sites are ';'-separated: "a.b=n:1;c.d=p:0.5:7".
//
// Cost model: when no schedule is installed the hook is one relaxed atomic
// load and a predicted-not-taken branch (sub-nanosecond; measured by
// bench/serve_throughput).
//
// Thread safety: Configure/Reset/Stats serialize on an internal mutex; the
// hot-path gate is an atomic flag. Hits on an *active* registry also take the
// mutex — acceptable because faults are only ever enabled in tests and chaos
// runs, never in production serving.
//
// Known sites (grep for DBAUGUR_FAULT_POINT):
//   serve.ingest.corrupt   TraceIngestor::Offer — corrupts the event's count
//                          to NaN before validation (garbage-row simulation)
//   serve.retrain.build    serve::Retrainer::Rebuild — fails the cycle
//   serve.retrain.hang     serve::Retrainer::Rebuild — the cycle never
//                          finishes until its CancelToken fires (deadline
//                          exercise); with no token it fails fast instead of
//                          deadlocking the caller
//   serve.retrain.slow     serve::Retrainer::Rebuild — stalls the cycle
//                          ~200ms (deadline-overrun exercise), completing
//                          normally unless cancelled first
//   serve.retrain.diverge  snapshot build — marks one cluster's fit diverged
//   core.fit.member        core::BuildTrainedState — fails one (member,
//                          cluster) fit before its first epoch
//   binio.save.write       binio::SaveToFile — torn half-write, then error
//   binio.save.sync        binio::SaveToFile — fsync failure before rename
//   binio.save.rename      binio::SaveToFile — rename failure (tmp left)

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dbaugur::fault {

/// Per-site counters since the last Configure/Reset.
struct SiteStats {
  uint64_t hits = 0;   ///< Times the site was evaluated while faults active.
  uint64_t fires = 0;  ///< Times the site reported "fail now".
};

/// Installs the schedules described by `spec` (grammar above), replacing any
/// previous configuration and zeroing all counters. An empty spec is
/// equivalent to Reset(). On a parse error nothing is installed and the
/// previous configuration stays in force.
Status Configure(const std::string& spec);

/// Removes every schedule and zeroes all counters; hooks go back to the
/// single-load fast path.
void Reset();

/// True when at least one schedule is installed.
bool Active();

/// Counters for one site (NotFound when the site has never been hit while
/// active and has no schedule).
StatusOr<SiteStats> Stats(const std::string& site);

namespace internal {

extern std::atomic<bool> g_active;

/// Slow path: records a hit for `site` and returns the schedule's verdict.
bool Hit(const char* site);

}  // namespace internal
}  // namespace dbaugur::fault

#define DBAUGUR_FAULT_POINT(site)                                        \
  (::dbaugur::fault::internal::g_active.load(std::memory_order_acquire) \
       ? ::dbaugur::fault::internal::Hit(site)                           \
       : false)
