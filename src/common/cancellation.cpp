#include "common/cancellation.h"

#include <utility>

namespace dbaugur {

CancelToken::CancelToken(std::chrono::steady_clock::time_point deadline,
                         std::string deadline_reason)
    : has_deadline_(true),
      deadline_(deadline),
      deadline_reason_(std::move(deadline_reason)) {}

void CancelToken::Cancel(const std::string& reason) {
  // A deadline that already passed is the earlier trigger: cancelled()
  // latches it first.
  if (!cancelled()) Latch(reason);
}

bool CancelToken::cancelled() const {
  if (cancelled_.load(std::memory_order_acquire)) return true;
  if (!has_deadline_ || std::chrono::steady_clock::now() < deadline_) {
    return false;
  }
  Latch(deadline_reason_);
  return true;
}

void CancelToken::Latch(const std::string& reason) const {
  MutexLock lock(&mu_);
  // First trigger wins: a racing caller that already latched keeps its
  // reason (the original trigger is what Health()/logs should surface). The
  // release store happens inside the lock, after the reason is written, so a
  // worker seeing cancelled() true reads the reason through the same mutex
  // without racing the writer.
  if (cancelled_.load(std::memory_order_relaxed)) return;
  reason_ = reason;
  cancelled_.store(true, std::memory_order_release);
}

std::string CancelToken::reason() const {
  (void)cancelled();  // latches a deadline that passed unpolled
  MutexLock lock(&mu_);
  return reason_;
}

Status CancelledStatus(const CancelToken& token, const std::string& what) {
  std::string reason = token.reason();
  std::string msg = what + " cancelled";
  if (!reason.empty()) {
    msg += ": ";
    msg += reason;
  }
  return Status::Cancelled(std::move(msg));
}

}  // namespace dbaugur
