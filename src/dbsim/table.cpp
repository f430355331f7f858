#include "dbsim/table.h"

#include <algorithm>
#include <cmath>

namespace dbaugur::dbsim {

void Index::Erase(const Value& key, size_t row_id) {
  auto [lo, hi] = entries_.equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == row_id) {
      entries_.erase(it);
      return;
    }
  }
}

std::vector<size_t> Index::EqualRange(const Value& v) const {
  std::vector<size_t> out;
  auto [lo, hi] = entries_.equal_range(v);
  for (auto it = lo; it != hi; ++it) out.push_back(it->second);
  return out;
}

std::vector<size_t> Index::Range(const Value* lo, bool lo_inclusive,
                                 const Value* hi, bool hi_inclusive) const {
  std::vector<size_t> out;
  auto it = lo == nullptr
                ? entries_.begin()
                : (lo_inclusive ? entries_.lower_bound(*lo)
                                : entries_.upper_bound(*lo));
  auto end = hi == nullptr
                 ? entries_.end()
                 : (hi_inclusive ? entries_.upper_bound(*hi)
                                 : entries_.lower_bound(*hi));
  for (; it != end; ++it) out.push_back(it->second);
  return out;
}

double Index::DescentCost() const {
  // ~200 keys per internal page.
  double n = static_cast<double>(entries_.size()) + 1.0;
  return std::max(1.0, std::ceil(std::log(n) / std::log(200.0)));
}

Table::Table(std::string name, std::vector<Column> columns)
    : name_(std::move(name)), columns_(std::move(columns)) {}

StatusOr<size_t> Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  return Status::NotFound("no column '" + name + "' in table " + name_);
}

Status Table::Insert(std::vector<Value> row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch for table " + name_);
  }
  for (size_t i = 0; i < row.size(); ++i) {
    // Allow int literals into double columns.
    if (columns_[i].type == ColumnType::kDouble &&
        std::holds_alternative<int64_t>(row[i])) {
      row[i] = static_cast<double>(std::get<int64_t>(row[i]));
    }
    if (TypeOf(row[i]) != columns_[i].type) {
      return Status::InvalidArgument("type mismatch in column " +
                                     columns_[i].name);
    }
  }
  size_t row_id = rows_.size();
  for (auto& [col, idx] : indexes_) {
    auto ci = ColumnIndex(col);
    idx->Insert(row[*ci], row_id);
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Status Table::UpdateCell(size_t row_id, size_t col, Value v) {
  if (row_id >= rows_.size() || col >= columns_.size()) {
    return Status::OutOfRange("UpdateCell out of range");
  }
  if (columns_[col].type == ColumnType::kDouble &&
      std::holds_alternative<int64_t>(v)) {
    v = static_cast<double>(std::get<int64_t>(v));
  }
  if (TypeOf(v) != columns_[col].type) {
    return Status::InvalidArgument("type mismatch in UpdateCell");
  }
  auto it = indexes_.find(columns_[col].name);
  if (it != indexes_.end()) {
    it->second->Erase(rows_[row_id][col], row_id);
    it->second->Insert(v, row_id);
  }
  rows_[row_id][col] = std::move(v);
  return Status::OK();
}

Status Table::CreateIndex(const std::string& column) {
  auto ci = ColumnIndex(column);
  if (!ci.ok()) return ci.status();
  if (indexes_.count(column)) return Status::OK();
  auto idx = std::make_unique<Index>();
  for (size_t r = 0; r < rows_.size(); ++r) idx->Insert(rows_[r][*ci], r);
  indexes_[column] = std::move(idx);
  return Status::OK();
}

Status Table::DropIndex(const std::string& column) {
  if (indexes_.erase(column) == 0) {
    return Status::NotFound("no index on " + column);
  }
  return Status::OK();
}

bool Table::HasIndex(const std::string& column) const {
  return indexes_.count(column) > 0;
}

const Index* Table::GetIndex(const std::string& column) const {
  auto it = indexes_.find(column);
  return it == indexes_.end() ? nullptr : it->second.get();
}

StatusOr<size_t> Table::DistinctCount(const std::string& column) const {
  auto ci = ColumnIndex(column);
  if (!ci.ok()) return ci.status();
  std::set<Value, ValueLess> distinct;
  for (const auto& row : rows_) distinct.insert(row[*ci]);
  return distinct.size();
}

StatusOr<std::pair<Value, Value>> Table::MinMax(const std::string& column) const {
  auto ci = ColumnIndex(column);
  if (!ci.ok()) return ci.status();
  if (rows_.empty()) return Status::NotFound("empty table");
  ValueLess less;
  Value mn = rows_[0][*ci], mx = rows_[0][*ci];
  for (const auto& row : rows_) {
    if (less(row[*ci], mn)) mn = row[*ci];
    if (less(mx, row[*ci])) mx = row[*ci];
  }
  return std::make_pair(mn, mx);
}

double Table::HeapPages() const {
  return std::max(1.0, std::ceil(static_cast<double>(rows_.size()) / kRowsPerPage));
}

}  // namespace dbaugur::dbsim
