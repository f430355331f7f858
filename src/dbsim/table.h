// Tables and secondary B-tree indexes for the mini relational engine.

#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "dbsim/value.h"

namespace dbaugur::dbsim {

/// One column definition.
struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt;
};

/// B-tree-style secondary index (ordered multimap of key -> row id). The
/// owning Table keys its indexes by column name.
class Index {
 public:
  void Insert(const Value& key, size_t row_id) { entries_.emplace(key, row_id); }
  void Erase(const Value& key, size_t row_id);

  /// Row ids with key == v.
  std::vector<size_t> EqualRange(const Value& v) const;
  /// Row ids with lo < key (or <=) and key < hi (or <=); null bounds open.
  std::vector<size_t> Range(const Value* lo, bool lo_inclusive, const Value* hi,
                            bool hi_inclusive) const;

  /// Simulated page height of the B-tree (descent cost).
  double DescentCost() const;

 private:
  std::multimap<Value, size_t, ValueLess> entries_;
};

/// Heap table with optional secondary indexes.
class Table {
 public:
  Table(std::string name, std::vector<Column> columns);

  size_t row_count() const { return rows_.size(); }
  const std::vector<Value>& row(size_t i) const { return rows_[i]; }

  /// Column position by name (NotFound if absent).
  StatusOr<size_t> ColumnIndex(const std::string& name) const;

  /// Appends a row (must match the schema arity and types).
  Status Insert(std::vector<Value> row);

  /// Overwrites one cell, maintaining indexes.
  Status UpdateCell(size_t row_id, size_t col, Value v);

  /// Creates a secondary index on `column`; AlreadyExists -> OK (idempotent).
  Status CreateIndex(const std::string& column);
  Status DropIndex(const std::string& column);
  bool HasIndex(const std::string& column) const;
  const Index* GetIndex(const std::string& column) const;

  /// Distinct value count of a column (for selectivity estimation).
  StatusOr<size_t> DistinctCount(const std::string& column) const;
  /// Min/max of a column (NotFound when the table is empty).
  StatusOr<std::pair<Value, Value>> MinMax(const std::string& column) const;

  /// Simulated heap pages: ceil(rows / rows_per_page).
  double HeapPages() const;
  static constexpr double kRowsPerPage = 100.0;

 private:
  std::string name_;
  std::vector<Column> columns_;
  std::vector<std::vector<Value>> rows_;
  std::map<std::string, std::unique_ptr<Index>> indexes_;
};

}  // namespace dbaugur::dbsim
