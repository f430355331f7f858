// Runtime contracts for DBAugur (CHECK/DCHECK tiers, RocksDB/Abseil idiom).
//
// The forecasting pipeline chains numerically fragile stages (DTW band math →
// LB pruning → clustering → NN training → ensemble weighting), and a
// shape mismatch that slips through becomes silent memory corruption. Bare
// `assert()` is compiled out by `-DNDEBUG` — i.e. in exactly the Release
// configuration users run — so library invariants use these macros instead.
//
// Tier policy:
//  - DBAUGUR_CHECK*  — always on, every build type. Use for API-boundary
//    preconditions and invariants whose violation corrupts memory or state
//    (shape mismatches, error-Status value() access, bad configuration).
//    Cost must be O(1) per call, not per element.
//  - DBAUGUR_DCHECK* — on in non-NDEBUG builds and when the build sets
//    `-DDBAUGUR_ENABLE_DCHECKS` (the sanitizer presets do). Use for hot-path
//    checks (per-element index bounds) and redundant postconditions.
//
// On failure both tiers log through common/logging (bypassing the level
// filter) with file:line, the stringified condition, both operands for the
// comparison forms, and any extra message operands, then abort().

#pragma once

#include <sstream>
#include <string>
#include <utility>

namespace dbaugur::contracts_internal {

/// Logs the failure through common/logging and aborts. Never returns.
[[noreturn]] void ContractFailure(const char* file, int line,
                                  const char* condition,
                                  const std::string& details);

/// Streams every argument into one string ("x=", x, " y=", y → "x=3 y=4").
template <typename... Args>
std::string FormatArgs(Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return std::string();
  } else {
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
  }
}

}  // namespace dbaugur::contracts_internal

/// Always-on contract: aborts with file:line and the formatted message
/// operands when `cond` is false. Usage:
///   DBAUGUR_CHECK(n > 0, "need positive n, got ", n);
#define DBAUGUR_CHECK(cond, ...)                                         \
  do {                                                                   \
    if (!(cond)) {                                                       \
      ::dbaugur::contracts_internal::ContractFailure(                    \
          __FILE__, __LINE__, #cond,                                     \
          ::dbaugur::contracts_internal::FormatArgs(__VA_ARGS__));       \
    }                                                                    \
  } while (0)

// Comparison form: evaluates each operand once and prints both values on
// failure, e.g. "CHECK failed: rows() == o.rows() ... lhs=3 rhs=4".
#define DBAUGUR_CHECK_OP_(a, op, b, ...)                                 \
  do {                                                                   \
    auto&& dbaugur_check_a_ = (a);                                       \
    auto&& dbaugur_check_b_ = (b);                                       \
    if (!(dbaugur_check_a_ op dbaugur_check_b_)) {                       \
      ::dbaugur::contracts_internal::ContractFailure(                    \
          __FILE__, __LINE__, #a " " #op " " #b,                         \
          ::dbaugur::contracts_internal::FormatArgs(                     \
              "lhs=", dbaugur_check_a_, " rhs=",                         \
              dbaugur_check_b_ __VA_OPT__(, " | ", ) __VA_ARGS__));      \
    }                                                                    \
  } while (0)

#define DBAUGUR_CHECK_EQ(a, b, ...) DBAUGUR_CHECK_OP_(a, ==, b, __VA_ARGS__)
#define DBAUGUR_CHECK_NE(a, b, ...) DBAUGUR_CHECK_OP_(a, !=, b, __VA_ARGS__)
#define DBAUGUR_CHECK_LT(a, b, ...) DBAUGUR_CHECK_OP_(a, <, b, __VA_ARGS__)
#define DBAUGUR_CHECK_LE(a, b, ...) DBAUGUR_CHECK_OP_(a, <=, b, __VA_ARGS__)
#define DBAUGUR_CHECK_GT(a, b, ...) DBAUGUR_CHECK_OP_(a, >, b, __VA_ARGS__)
#define DBAUGUR_CHECK_GE(a, b, ...) DBAUGUR_CHECK_OP_(a, >=, b, __VA_ARGS__)

#if !defined(NDEBUG) || defined(DBAUGUR_ENABLE_DCHECKS)
#define DBAUGUR_DCHECKS_ENABLED 1
#else
#define DBAUGUR_DCHECKS_ENABLED 0
#endif

#if DBAUGUR_DCHECKS_ENABLED
#define DBAUGUR_DCHECK(cond, ...) DBAUGUR_CHECK(cond, __VA_ARGS__)
#define DBAUGUR_DCHECK_EQ(a, b, ...) DBAUGUR_CHECK_EQ(a, b, __VA_ARGS__)
#define DBAUGUR_DCHECK_NE(a, b, ...) DBAUGUR_CHECK_NE(a, b, __VA_ARGS__)
#define DBAUGUR_DCHECK_LT(a, b, ...) DBAUGUR_CHECK_LT(a, b, __VA_ARGS__)
#define DBAUGUR_DCHECK_LE(a, b, ...) DBAUGUR_CHECK_LE(a, b, __VA_ARGS__)
#define DBAUGUR_DCHECK_GT(a, b, ...) DBAUGUR_CHECK_GT(a, b, __VA_ARGS__)
#define DBAUGUR_DCHECK_GE(a, b, ...) DBAUGUR_CHECK_GE(a, b, __VA_ARGS__)
#else
// Compiled out, but the operands stay type-checked so a DCHECK cannot rot in
// Release-only code paths. The dead branch is removed by the optimizer.
#define DBAUGUR_DCHECK(cond, ...) \
  do {                            \
    if (false) {                  \
      (void)(cond);               \
    }                             \
  } while (0)
#define DBAUGUR_DCHECK_OP_OFF_(a, b) \
  do {                               \
    if (false) {                     \
      (void)(a);                     \
      (void)(b);                     \
    }                                \
  } while (0)
#define DBAUGUR_DCHECK_EQ(a, b, ...) DBAUGUR_DCHECK_OP_OFF_(a, b)
#define DBAUGUR_DCHECK_NE(a, b, ...) DBAUGUR_DCHECK_OP_OFF_(a, b)
#define DBAUGUR_DCHECK_LT(a, b, ...) DBAUGUR_DCHECK_OP_OFF_(a, b)
#define DBAUGUR_DCHECK_LE(a, b, ...) DBAUGUR_DCHECK_OP_OFF_(a, b)
#define DBAUGUR_DCHECK_GT(a, b, ...) DBAUGUR_DCHECK_OP_OFF_(a, b)
#define DBAUGUR_DCHECK_GE(a, b, ...) DBAUGUR_DCHECK_OP_OFF_(a, b)
#endif
