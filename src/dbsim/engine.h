// Execution engine with a page-I/O cost model and a what-if optimizer —
// the PostgreSQL stand-in for the index-selection case study (Fig. 8).
//
// Cost model (in simulated page reads):
//   seq scan:    heap pages
//   index scan:  B-tree descent + one heap page per fetched row
//   update:      access cost + one page write per modified row
// The optimizer picks the cheapest access path among the sequential scan and
// every usable (real or hypothetical) single-column index, using
// distinct-count / min-max statistics for selectivity.

#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "dbsim/query.h"
#include "dbsim/table.h"

namespace dbaugur::dbsim {

/// Result of executing one statement.
struct ExecResult {
  size_t matched_rows = 0;
  double cost_pages = 0.0;
  std::string access_path;  ///< "seqscan" or "index:<column>".
  std::vector<std::vector<Value>> rows;  ///< SELECT output (projected).
};

/// A hypothetical index for what-if costing.
struct HypotheticalIndex {
  std::string table;
  std::string column;
  bool operator<(const HypotheticalIndex& o) const {
    return std::tie(table, column) < std::tie(o.table, o.column);
  }
};

class Database {
 public:
  /// Creates a table; InvalidArgument if it already exists.
  Status CreateTable(const std::string& name, std::vector<Column> columns);
  StatusOr<Table*> GetTable(const std::string& name);
  StatusOr<const Table*> GetTable(const std::string& name) const;

  Status Insert(const std::string& table, std::vector<Value> row);
  Status CreateIndex(const std::string& table, const std::string& column);
  Status DropIndex(const std::string& table, const std::string& column);

  /// Pages written while building an index on `table.column` (charged to the
  /// Auto strategy while it catches up, per the paper's Fig. 8 narrative).
  StatusOr<double> IndexBuildCost(const std::string& table) const;

  /// Executes one parsed statement, returning rows (for SELECT) and cost.
  StatusOr<ExecResult> Execute(const QuerySpec& spec);
  /// Parses and executes.
  StatusOr<ExecResult> Execute(const std::string& sql);

  /// Estimated cost of `spec` given the real indexes plus `hypothetical`
  /// ones — no data access beyond statistics.
  StatusOr<double> EstimateCost(
      const QuerySpec& spec,
      const std::set<HypotheticalIndex>& hypothetical = {}) const;

 private:
  /// Selectivity of one predicate on a table in [0, 1].
  StatusOr<double> Selectivity(const Table& t, const Predicate& p) const;
  /// Row ids matching all predicates, choosing the best access path.
  StatusOr<std::vector<size_t>> FindRows(Table& t,
                                         const std::vector<Predicate>& preds,
                                         double* cost,
                                         std::string* access_path) const;

  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace dbaugur::dbsim
