// Typed cell values for the mini relational engine.

#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace dbaugur::dbsim {

/// Column types supported by the simulator.
enum class ColumnType { kInt, kDouble, kString };

/// One cell value.
using Value = std::variant<int64_t, double, std::string>;

/// Total order across same-type values; mixed int/double compare numerically,
/// numbers sort before strings (arbitrary but consistent).
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const;
};

/// Equality consistent with ValueLess.
bool ValueEquals(const Value& a, const Value& b);

/// The ColumnType a Value currently holds.
ColumnType TypeOf(const Value& v);

}  // namespace dbaugur::dbsim
