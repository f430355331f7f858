#include "dbsim/value.h"

namespace dbaugur::dbsim {

namespace {
// Rank: numbers (0) before strings (1).
int Rank(const Value& v) { return std::holds_alternative<std::string>(v) ? 1 : 0; }

double AsDouble(const Value& v) {
  if (const int64_t* i = std::get_if<int64_t>(&v)) return static_cast<double>(*i);
  return std::get<double>(v);
}
}  // namespace

bool ValueLess::operator()(const Value& a, const Value& b) const {
  int ra = Rank(a), rb = Rank(b);
  if (ra != rb) return ra < rb;
  if (ra == 1) return std::get<std::string>(a) < std::get<std::string>(b);
  return AsDouble(a) < AsDouble(b);
}

bool ValueEquals(const Value& a, const Value& b) {
  ValueLess less;
  return !less(a, b) && !less(b, a);
}

ColumnType TypeOf(const Value& v) {
  if (std::holds_alternative<int64_t>(v)) return ColumnType::kInt;
  if (std::holds_alternative<double>(v)) return ColumnType::kDouble;
  return ColumnType::kString;
}

}  // namespace dbaugur::dbsim
