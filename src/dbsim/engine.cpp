#include "dbsim/engine.h"

#include <algorithm>
#include <cmath>

namespace dbaugur::dbsim {

Status Database::CreateTable(const std::string& name,
                             std::vector<Column> columns) {
  if (tables_.count(name)) {
    return Status::InvalidArgument("table exists: " + name);
  }
  tables_[name] = std::make_unique<Table>(name, std::move(columns));
  return Status::OK();
}

StatusOr<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  return it->second.get();
}

StatusOr<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table " + name);
  return static_cast<const Table*>(it->second.get());
}

Status Database::Insert(const std::string& table, std::vector<Value> row) {
  auto t = GetTable(table);
  if (!t.ok()) return t.status();
  return (*t)->Insert(std::move(row));
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column) {
  auto t = GetTable(table);
  if (!t.ok()) return t.status();
  return (*t)->CreateIndex(column);
}

Status Database::DropIndex(const std::string& table,
                           const std::string& column) {
  auto t = GetTable(table);
  if (!t.ok()) return t.status();
  return (*t)->DropIndex(column);
}

StatusOr<double> Database::IndexBuildCost(const std::string& table) const {
  auto t = GetTable(table);
  if (!t.ok()) return t.status();
  // Read the heap once and write ~rows/200 leaf pages.
  return (*t)->HeapPages() +
         std::ceil(static_cast<double>((*t)->row_count()) / 200.0);
}

StatusOr<double> Database::Selectivity(const Table& t,
                                       const Predicate& p) const {
  auto ci = t.ColumnIndex(p.column);
  if (!ci.ok()) return ci.status();
  if (t.row_count() == 0) return 0.0;
  if (p.op == CompareOp::kEq) {
    auto distinct = t.DistinctCount(p.column);
    if (!distinct.ok()) return distinct.status();
    return 1.0 / static_cast<double>(std::max<size_t>(1, *distinct));
  }
  // Range predicate: uniform assumption between column min and max.
  auto mm = t.MinMax(p.column);
  if (!mm.ok()) return 0.33;  // empty table handled above; default fallback
  auto as_double = [](const Value& v) -> double {
    if (const int64_t* i = std::get_if<int64_t>(&v)) {
      return static_cast<double>(*i);
    }
    if (const double* d = std::get_if<double>(&v)) return *d;
    return 0.0;
  };
  if (std::holds_alternative<std::string>(p.value)) return 0.33;
  double lo = as_double(mm->first), hi = as_double(mm->second);
  double v = as_double(p.value);
  if (hi <= lo) return 1.0;
  double frac = (v - lo) / (hi - lo);
  frac = std::clamp(frac, 0.0, 1.0);
  switch (p.op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      return std::max(frac, 1.0 / static_cast<double>(t.row_count()));
    case CompareOp::kGt:
    case CompareOp::kGe:
      return std::max(1.0 - frac, 1.0 / static_cast<double>(t.row_count()));
    default:
      return 0.33;
  }
}

StatusOr<double> Database::EstimateCost(
    const QuerySpec& spec, const std::set<HypotheticalIndex>& hypothetical) const {
  auto tp = GetTable(spec.table);
  if (!tp.ok()) return tp.status();
  const Table& t = **tp;
  double rows = static_cast<double>(t.row_count());
  double seq_cost = t.HeapPages();
  double best = seq_cost;
  // Consider an index scan per indexed (real or hypothetical) predicate
  // column; remaining predicates are applied as filters on fetched rows.
  for (const auto& p : spec.predicates) {
    bool usable = t.HasIndex(p.column) ||
                  hypothetical.count(HypotheticalIndex{spec.table, p.column});
    if (!usable) continue;
    auto sel = Selectivity(t, p);
    if (!sel.ok()) return sel.status();
    double fetched = rows * (*sel);
    // Descent (~log_200) + one heap page per fetched row.
    double descent = std::max(1.0, std::ceil(std::log(rows + 2.0) / std::log(200.0)));
    double cost = descent + fetched;
    best = std::min(best, cost);
  }
  double total = best;
  if (spec.kind == StatementKind::kUpdate) {
    // One page write per modified row, estimated via combined selectivity.
    double sel_all = 1.0;
    for (const auto& p : spec.predicates) {
      auto sel = Selectivity(t, p);
      if (!sel.ok()) return sel.status();
      sel_all *= *sel;
    }
    total += std::max(1.0, rows * sel_all);
  }
  return total;
}

StatusOr<std::vector<size_t>> Database::FindRows(
    Table& t, const std::vector<Predicate>& preds, double* cost,
    std::string* access_path) const {
  // Pick the cheapest usable index (by estimated selectivity), else seqscan.
  const Predicate* driver = nullptr;
  double best_sel = 2.0;
  for (const auto& p : preds) {
    if (!t.HasIndex(p.column)) continue;
    auto sel = Selectivity(t, p);
    if (!sel.ok()) return sel.status();
    if (*sel < best_sel) {
      best_sel = *sel;
      driver = &p;
    }
  }
  double rows = static_cast<double>(t.row_count());
  std::vector<size_t> candidates;
  if (driver != nullptr &&
      (rows * best_sel + 3.0) < t.HeapPages()) {  // index beats scan
    const Index* idx = t.GetIndex(driver->column);
    switch (driver->op) {
      case CompareOp::kEq:
        candidates = idx->EqualRange(driver->value);
        break;
      case CompareOp::kLt:
        candidates = idx->Range(nullptr, false, &driver->value, false);
        break;
      case CompareOp::kLe:
        candidates = idx->Range(nullptr, false, &driver->value, true);
        break;
      case CompareOp::kGt:
        candidates = idx->Range(&driver->value, false, nullptr, false);
        break;
      case CompareOp::kGe:
        candidates = idx->Range(&driver->value, true, nullptr, false);
        break;
    }
    *cost = idx->DescentCost() + static_cast<double>(candidates.size());
    *access_path = "index:" + driver->column;
  } else {
    candidates.resize(t.row_count());
    for (size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
    *cost = t.HeapPages();
    *access_path = "seqscan";
    driver = nullptr;
  }
  // Apply all predicates as filters.
  std::vector<size_t> out;
  for (size_t r : candidates) {
    bool ok = true;
    for (const auto& p : preds) {
      auto ci = t.ColumnIndex(p.column);
      if (!ci.ok()) return ci.status();
      if (!EvalPredicate(t.row(r)[*ci], p.op, p.value)) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(r);
  }
  return out;
}

StatusOr<ExecResult> Database::Execute(const QuerySpec& spec) {
  auto tp = GetTable(spec.table);
  if (!tp.ok()) return tp.status();
  Table& t = **tp;
  ExecResult res;
  auto rows = FindRows(t, spec.predicates, &res.cost_pages, &res.access_path);
  if (!rows.ok()) return rows.status();
  res.matched_rows = rows->size();
  if (spec.kind == StatementKind::kSelect) {
    std::vector<size_t> proj;
    for (const auto& col : spec.select_columns) {
      auto ci = t.ColumnIndex(col);
      if (!ci.ok()) return ci.status();
      proj.push_back(*ci);
    }
    for (size_t r : *rows) {
      if (proj.empty()) {
        res.rows.push_back(t.row(r));
      } else {
        std::vector<Value> row;
        row.reserve(proj.size());
        for (size_t c : proj) row.push_back(t.row(r)[c]);
        res.rows.push_back(std::move(row));
      }
    }
  } else {
    // UPDATE: apply assignments; one page write per modified row.
    for (size_t r : *rows) {
      for (const auto& a : spec.assignments) {
        auto ci = t.ColumnIndex(a.column);
        if (!ci.ok()) return ci.status();
        DBAUGUR_RETURN_IF_ERROR(t.UpdateCell(r, *ci, a.value));
      }
    }
    res.cost_pages += static_cast<double>(rows->size());
  }
  return res;
}

StatusOr<ExecResult> Database::Execute(const std::string& sql) {
  auto spec = ParseQuery(sql);
  if (!spec.ok()) return spec.status();
  return Execute(*spec);
}

}  // namespace dbaugur::dbsim
