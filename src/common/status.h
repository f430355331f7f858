// Status / StatusOr error-handling primitives (RocksDB/Abseil idiom).
//
// Fallible operations in DBAugur return `Status` (or `StatusOr<T>` when they
// produce a value) instead of throwing. This keeps failure paths explicit and
// cheap, which matters inside training loops and clustering scans.

#pragma once

#include <optional>
#include <string>
#include <utility>

#include "common/contracts.h"

namespace dbaugur {

/// Broad failure categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kFailedPrecondition,
  kOutOfRange,
  kInternal,
  kUnimplemented,
  kCancelled,
};

/// Lightweight result type: a code plus a human-readable message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  /// Cooperative cancellation (see common/cancellation.h): the operation was
  /// stopped at a checkpoint before completing, leaving prior state intact.
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// Renders e.g. "InvalidArgument: window must be positive".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string msg_;
};

/// Either a value of type T or an error Status. Access via `value()` only
/// after checking `ok()`.
///
/// Misuse (constructing from an OK status, or reading the value of an error
/// or moved-from StatusOr) aborts via DBAUGUR_CHECK in every build type —
/// these were previously `assert()`s that `-DNDEBUG` silently stripped,
/// turning the misuse into a read of a disengaged optional.
template <typename T>
class StatusOr {
 public:
  // Implicit conversion is the point of StatusOr: `return value;` must work
  // at every call site.
  StatusOr(T value)  // NOLINT(google-explicit-constructor)
      : status_(Status::OK()), value_(std::move(value)) {}
  // Likewise for errors: `return Status::Internal(...);` must work.
  StatusOr(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    DBAUGUR_CHECK(!status_.ok(),
                  "StatusOr constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckHasValue();
    return *value_;
  }
  T& value() & {
    CheckHasValue();
    return *value_;
  }
  T&& value() && {
    CheckHasValue();
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckHasValue() const {
    DBAUGUR_CHECK(ok(), "StatusOr::value() called on error: ",
                  status_.ToString());
    DBAUGUR_CHECK(value_.has_value(),
                  "StatusOr::value() called on moved-from object");
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace dbaugur

/// Propagates a non-OK Status to the caller.
#define DBAUGUR_RETURN_IF_ERROR(expr)               \
  do {                                              \
    ::dbaugur::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                      \
  } while (0)
