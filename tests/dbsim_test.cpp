// Tests for the mini relational engine, cost model, advisor, and replay.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dbsim/advisor.h"
#include "dbsim/bustracker_db.h"
#include "dbsim/engine.h"
#include "dbsim/query.h"
#include "dbsim/replay.h"
#include "dbsim/value.h"
#include "workloads/query_log.h"

namespace dbaugur::dbsim {
namespace {

TEST(ValueTest, OrderingAndEquality) {
  ValueLess less;
  EXPECT_TRUE(less(Value(int64_t{1}), Value(int64_t{2})));
  EXPECT_TRUE(less(Value(1.5), Value(int64_t{2})));  // mixed numeric
  EXPECT_TRUE(less(Value(int64_t{2}), Value(std::string("a"))));
  EXPECT_TRUE(ValueEquals(Value(int64_t{2}), Value(2.0)));
  EXPECT_FALSE(ValueEquals(Value(std::string("a")), Value(std::string("b"))));
  EXPECT_EQ(TypeOf(Value(int64_t{1})), ColumnType::kInt);
  EXPECT_EQ(TypeOf(Value(std::string("x"))), ColumnType::kString);
}

Database MakeTinyDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable("t", {{"id", ColumnType::kInt},
                                   {"score", ColumnType::kDouble},
                                   {"name", ColumnType::kString}})
                  .ok());
  for (int64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(db.Insert("t", {i % 500, static_cast<double>(i % 1000),
                                std::string(i % 2 ? "odd" : "even")})
                    .ok());
  }
  return db;
}

TEST(EngineTest, SelectEqualitySeqScan) {
  Database db = MakeTinyDb();
  auto res = db.Execute("SELECT * FROM t WHERE id = 7");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->matched_rows, 20u);  // 10000 rows, id = i % 500
  EXPECT_EQ(res->access_path, "seqscan");
  EXPECT_DOUBLE_EQ(res->cost_pages, 100.0);  // 10000 rows / 100 per page
}

TEST(EngineTest, IndexScanCheaperAndSameResult) {
  Database db = MakeTinyDb();
  auto seq = db.Execute("SELECT * FROM t WHERE id = 7");
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(db.CreateIndex("t", "id").ok());
  auto idx = db.Execute("SELECT * FROM t WHERE id = 7");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->matched_rows, seq->matched_rows);
  EXPECT_EQ(idx->access_path, "index:id");
  EXPECT_LT(idx->cost_pages, seq->cost_pages);  // descent + 20 fetches < 100
  // Row contents identical modulo order.
  EXPECT_EQ(idx->rows.size(), seq->rows.size());
}

TEST(EngineTest, RangePredicatesViaIndex) {
  Database db = MakeTinyDb();
  ASSERT_TRUE(db.CreateIndex("t", "id").ok());
  auto res = db.Execute("SELECT * FROM t WHERE id < 3");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->matched_rows, 60u);  // ids 0,1,2 -> 20 each
  auto res2 = db.Execute("SELECT * FROM t WHERE id >= 498");
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2->matched_rows, 40u);
  EXPECT_EQ(res2->access_path, "index:id");
}

TEST(EngineTest, ProjectionAndConjunction) {
  Database db = MakeTinyDb();
  auto res = db.Execute("SELECT name FROM t WHERE id = 1 AND score > 5");
  ASSERT_TRUE(res.ok());
  ASSERT_GT(res->matched_rows, 0u);
  for (const auto& row : res->rows) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(TypeOf(row[0]), ColumnType::kString);
  }
}

TEST(EngineTest, UpdateModifiesRowsAndCost) {
  Database db = MakeTinyDb();
  auto res = db.Execute("UPDATE t SET score = 4242.5 WHERE id = 3");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->matched_rows, 20u);
  EXPECT_GT(res->cost_pages, 10.0);  // scan + 20 writes
  auto check = db.Execute("SELECT * FROM t WHERE score = 4242.5");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->matched_rows, 20u);
}

TEST(EngineTest, UpdateMaintainsIndex) {
  Database db = MakeTinyDb();
  ASSERT_TRUE(db.CreateIndex("t", "score").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET score = 42.5 WHERE id = 3").ok());
  auto res = db.Execute("SELECT * FROM t WHERE score = 42.5");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->matched_rows, 20u);
  EXPECT_EQ(res->access_path, "index:score");
}

TEST(EngineTest, StringPredicates) {
  Database db = MakeTinyDb();
  auto res = db.Execute("SELECT * FROM t WHERE name = 'odd'");
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->matched_rows, 5000u);
}

TEST(EngineTest, ErrorsSurface) {
  Database db = MakeTinyDb();
  EXPECT_FALSE(db.Execute("SELECT * FROM missing WHERE id = 1").ok());
  EXPECT_FALSE(db.Execute("SELECT * FROM t WHERE nocol = 1").ok());
  EXPECT_FALSE(db.Execute("DELETE FROM t").ok());  // unsupported verb
  EXPECT_FALSE(db.CreateTable("t", {}).ok());      // duplicate
  EXPECT_FALSE(db.DropIndex("t", "id").ok());      // no such index
}

TEST(QueryParserTest, ParsesShapes) {
  auto sel = ParseQuery("SELECT price, seats FROM tickets WHERE trip_id = 5");
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->kind, StatementKind::kSelect);
  EXPECT_EQ(sel->table, "tickets");
  ASSERT_EQ(sel->select_columns.size(), 2u);
  ASSERT_EQ(sel->predicates.size(), 1u);
  EXPECT_EQ(sel->predicates[0].column, "trip_id");
  EXPECT_TRUE(ValueEquals(sel->predicates[0].value, Value(int64_t{5})));

  auto upd = ParseQuery("UPDATE positions SET lat = 40.5, lon = -79.9 WHERE bus_id = 7");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->kind, StatementKind::kUpdate);
  ASSERT_EQ(upd->assignments.size(), 2u);
  EXPECT_TRUE(ValueEquals(upd->assignments[1].value, Value(-79.9)));
}

TEST(QueryParserTest, NegativeLiteralsAndStrings) {
  auto q = ParseQuery("SELECT * FROM t WHERE a > -5 AND name = 'bob'");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(ValueEquals(q->predicates[0].value, Value(int64_t{-5})));
  EXPECT_TRUE(ValueEquals(q->predicates[1].value, Value(std::string("bob"))));
}

TEST(QueryParserTest, RejectsUnsupported) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM a JOIN b ON a.id = b.id").ok());
  EXPECT_FALSE(ParseQuery("INSERT INTO t VALUES (1)").ok());
  EXPECT_FALSE(ParseQuery("SELECT * FROM t WHERE a = 1 OR b = 2").ok());
}

TEST(CostModelTest, EstimateTracksIndexBenefit) {
  Database db = MakeTinyDb();
  auto spec = ParseQuery("SELECT * FROM t WHERE id = 7");
  ASSERT_TRUE(spec.ok());
  auto base = db.EstimateCost(*spec);
  ASSERT_TRUE(base.ok());
  auto hypo = db.EstimateCost(*spec, {{"t", "id"}});
  ASSERT_TRUE(hypo.ok());
  EXPECT_LT(*hypo, *base);
  // And the estimate with a hypothetical index matches the real-index cost.
  ASSERT_TRUE(db.CreateIndex("t", "id").ok());
  auto real = db.EstimateCost(*spec);
  ASSERT_TRUE(real.ok());
  EXPECT_DOUBLE_EQ(*real, *hypo);
}

TEST(AdvisorTest, PicksSelectiveColumnFirst) {
  Database db = MakeTinyDb();
  // Workload dominated by id-equality lookups (selectivity 1/500) plus a
  // few score lookups (1/1000): with budget 1, id wins.
  std::vector<WeightedQuery> workload;
  auto q1 = ParseQuery("SELECT * FROM t WHERE id = 7");
  auto q2 = ParseQuery("SELECT * FROM t WHERE score = 3.0");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  workload.push_back({*q1, 100.0});
  workload.push_back({*q2, 10.0});
  auto rec = RecommendIndexes(db, workload, {1});
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->indexes.size(), 1u);
  EXPECT_EQ(rec->indexes[0].column, "id");
  EXPECT_LT(rec->optimized_cost, rec->baseline_cost);
}

TEST(AdvisorTest, RespectsBudgetAndStopsWhenNoGain) {
  Database db = MakeTinyDb();
  std::vector<WeightedQuery> workload;
  auto q1 = ParseQuery("SELECT * FROM t WHERE id = 7");
  auto q2 = ParseQuery("SELECT * FROM t WHERE score = 3.0");
  auto q3 = ParseQuery("SELECT * FROM t WHERE name = 'odd'");
  workload.push_back({*q1, 10.0});
  workload.push_back({*q2, 10.0});
  workload.push_back({*q3, 10.0});
  auto rec = RecommendIndexes(db, workload, {5});
  ASSERT_TRUE(rec.ok());
  // name = 'odd' matches 50% of rows: an index never beats the scan, so at
  // most two indexes are chosen despite the budget of five.
  EXPECT_LE(rec->indexes.size(), 2u);
  for (const auto& idx : rec->indexes) EXPECT_NE(idx.column, "name");
}

TEST(AdvisorTest, BuildWorkloadMergesTemplates) {
  size_t skipped = 0;
  auto workload = BuildWorkload(
      {"SELECT * FROM t WHERE id = 1", "SELECT * FROM t WHERE id = 2",
       "SELECT * FROM t WHERE score = 1.0", "TRUNCATE t"},
      &skipped);
  EXPECT_EQ(skipped, 1u);
  ASSERT_EQ(workload.size(), 2u);
  double total_weight = 0.0;
  for (const auto& wq : workload) total_weight += wq.weight;
  EXPECT_DOUBLE_EQ(total_weight, 3.0);
}

TEST(BusTrackerDbTest, SchemaAndTemplatesExecutable) {
  BusTrackerDbOptions opts;
  opts.positions = 1000;
  opts.schedules = 1000;
  opts.tickets = 1000;
  opts.trips = 1000;
  auto db = MakeBusTrackerDatabase(opts);
  ASSERT_TRUE(db.ok());
  for (const char* table : {"positions", "schedules", "tickets", "trips"}) {
    auto t = db->GetTable(table);
    ASSERT_TRUE(t.ok()) << table;
    EXPECT_EQ((*t)->row_count(), 1000u) << table;
  }
  // Every generated template shape must execute.
  Rng rng(50);
  for (auto& spec : workloads::BusTrackerTemplates()) {
    auto res = db->Execute(spec.make_sql(rng));
    ASSERT_TRUE(res.ok()) << spec.name << ": " << res.status().ToString();
  }
}

TEST(ReplayTest, IndexActionsImproveLaterWindows) {
  BusTrackerDbOptions dbopts;
  dbopts.positions = 5000;
  dbopts.schedules = 5000;
  dbopts.tickets = 5000;
  dbopts.trips = 5000;
  auto db = MakeBusTrackerDatabase(dbopts);
  ASSERT_TRUE(db.ok());
  workloads::QueryLogOptions lopts;
  lopts.days = 1;
  lopts.seed = 51;
  auto log =
      workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), lopts);
  ReplayOptions ropts;
  ropts.window_seconds = 7200;
  // Build indexes at noon.
  std::vector<IndexAction> actions = {
      {43200,
       {{"positions", "route_id"}, {"tickets", "trip_id"}, {"schedules", "stop_id"}},
       {}}};
  auto stats = ReplayWorkload(&*db, log, actions, ropts);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 12u);  // 24h / 2h
  // Average per-query cost after the build must be well below before.
  double before = 0, after = 0;
  int nb = 0, na = 0;
  for (const auto& w : *stats) {
    if (w.queries == 0) continue;
    if (w.start < 43200) {
      before += w.avg_cost_pages;
      ++nb;
    } else if (w.start >= 43200 + 7200) {
      after += w.avg_cost_pages;
      ++na;
    }
  }
  ASSERT_GT(nb, 0);
  ASSERT_GT(na, 0);
  EXPECT_LT(after / na, 0.5 * before / nb);
}

TEST(ReplayTest, Validation) {
  Database db;
  std::vector<trace::LogEntry> log = {{0, "SELECT 1"}};
  EXPECT_FALSE(ReplayWorkload(nullptr, log, {}, {}).ok());
  EXPECT_FALSE(ReplayWorkload(&db, {}, {}, {}).ok());
  ReplayOptions bad;
  bad.window_seconds = 0;
  EXPECT_FALSE(ReplayWorkload(&db, log, {}, bad).ok());
}

}  // namespace
}  // namespace dbaugur::dbsim
