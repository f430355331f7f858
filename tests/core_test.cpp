// End-to-end integration tests: query log -> SQL2Template -> Descender
// clustering -> per-cluster DBAugur ensembles -> trace-level forecasts.

#include <gtest/gtest.h>

#include <cmath>

#include "common/fault_injection.h"
#include "core/dbaugur.h"
#include "workloads/generators.h"
#include "workloads/query_log.h"

namespace dbaugur::core {
namespace {

DBAugurOptions FastOptions() {
  DBAugurOptions opts;
  opts.extraction.interval_seconds = 600;
  opts.clustering.radius = 6.0;
  opts.clustering.min_size = 2;
  opts.clustering.dtw.window = 6;
  opts.top_k = 4;
  opts.forecaster.window = 24;
  opts.forecaster.horizon = 1;
  opts.forecaster.epochs = 4;  // integration smoke, not accuracy
  return opts;
}

TEST(DBAugurSystemTest, FullPipelineOnGeneratedLog) {
  workloads::QueryLogOptions lopts;
  lopts.days = 2;
  lopts.seed = 61;
  auto log =
      workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), lopts);

  DBAugurSystem sys(FastOptions());
  ASSERT_TRUE(sys.IngestQueryLog(log).ok());
  // Add a resource trace aligned with the 2-day log at 10-minute bins.
  workloads::AlibabaOptions aopts;
  aopts.days = 2;
  aopts.interval_seconds = 600;
  sys.AddResourceTrace(workloads::GenerateAlibabaDisk(aopts));

  ASSERT_TRUE(sys.Train().ok());
  // 6 templates + 1 resource trace.
  EXPECT_EQ(sys.trace_count(), 7u);
  EXPECT_GT(sys.forecast_count(), 0u);
  EXPECT_LE(sys.forecast_count(), 4u);

  // Ticket price and seats-left templates track each other with a small lag
  // (the paper's planetarium example): they must share a cluster.
  const cluster::Descender* desc = sys.clustering();
  ASSERT_NE(desc, nullptr);
  int price_label = -1, seats_label = -1;
  for (size_t i = 0; i < sys.trace_count(); ++i) {
    const auto& ref = sys.trace_ref(i);
    if (ref.kind != TraceRef::Kind::kQueryTemplate) continue;
    if (ref.name.find("price") != std::string::npos) {
      price_label = desc->label(i);
    } else if (ref.name.find("seats FROM tickets WHERE") != std::string::npos &&
               ref.name.find("price") == std::string::npos) {
      seats_label = desc->label(i);
    }
  }
  ASSERT_GE(price_label, 0);
  ASSERT_GE(seats_label, 0);
  EXPECT_EQ(price_label, seats_label);

  // Cluster forecasts produce finite values.
  for (size_t rank = 0; rank < sys.forecast_count(); ++rank) {
    auto pred = sys.ForecastCluster(rank);
    ASSERT_TRUE(pred.ok());
    EXPECT_TRUE(std::isfinite(*pred));
  }
  // Trace forecasts for traces in forecasted clusters.
  size_t forecastable = 0;
  for (size_t i = 0; i < sys.trace_count(); ++i) {
    auto pred = sys.ForecastTrace(i);
    if (pred.ok()) {
      EXPECT_TRUE(std::isfinite(*pred));
      ++forecastable;
    } else {
      EXPECT_EQ(pred.status().code(), StatusCode::kNotFound);
    }
  }
  EXPECT_GT(forecastable, 0u);
}

TEST(DBAugurSystemTest, TraceForecastsScaleWithProportion) {
  // Two templates with identical shape but 1:3 volume ratio end up in one
  // cluster; their forecasts must split the cluster total accordingly.
  std::vector<trace::LogEntry> log;
  for (int64_t t = 0; t < 2 * 86400; t += 600) {
    double phase = 2.0 * M_PI * static_cast<double>(t % 86400) / 86400.0;
    int64_t n = static_cast<int64_t>(8.0 + 6.0 * std::sin(phase));
    for (int64_t q = 0; q < n; ++q) {
      log.push_back({t + q, "SELECT * FROM small WHERE id = 1"});
      log.push_back({t + q, "SELECT * FROM big WHERE id = 1"});
      log.push_back({t + q, "SELECT * FROM big WHERE id = 2"});
      log.push_back({t + q, "SELECT * FROM big WHERE id = 3"});
    }
  }
  DBAugurOptions opts = FastOptions();
  opts.top_k = 2;
  DBAugurSystem sys(opts);
  ASSERT_TRUE(sys.IngestQueryLog(log).ok());
  ASSERT_TRUE(sys.Train().ok());
  ASSERT_EQ(sys.trace_count(), 2u);
  auto small = sys.ForecastTrace(0);
  auto big = sys.ForecastTrace(1);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(big.ok());
  EXPECT_NEAR(*big / *small, 3.0, 0.2);
}

TEST(DBAugurSystemTest, ClusterWhoseFitFailedAnswersWithItsFitStatus) {
  // "small" and "big" share a daily shape at 1:3 volume; "burst" fires for
  // three hours a day.
  std::vector<trace::LogEntry> log;
  for (int64_t t = 0; t < 2 * 86400; t += 600) {
    double phase = 2.0 * M_PI * static_cast<double>(t % 86400) / 86400.0;
    int64_t n = static_cast<int64_t>(8.0 + 6.0 * std::sin(phase));
    for (int64_t q = 0; q < n; ++q) {
      log.push_back({t + q, "SELECT * FROM small WHERE id = 1"});
      for (int k = 0; k < 3; ++k) {
        log.push_back({t + q, "SELECT * FROM big WHERE id = 1"});
      }
    }
    int64_t burst = t % 86400 < 3 * 3600 ? 20 : 1;
    for (int64_t q = 0; q < burst; ++q) {
      log.push_back({t + q, "SELECT * FROM burst WHERE id = 1"});
    }
  }
  DBAugurOptions opts = FastOptions();
  opts.top_k = 2;
  opts.clustering.threads = 1;  // one lane: fault hit 0 is rank 0's WFGAN
  opts.tolerate_fit_failures = true;
  DBAugurSystem sys(opts);
  ASSERT_TRUE(sys.IngestQueryLog(log).ok());
  ASSERT_TRUE(fault::Configure("core.fit.member=at:0").ok());
  const Status trained = sys.Train();
  fault::Reset();
  ASSERT_TRUE(trained.ok()) << trained.ToString();
  ASSERT_EQ(sys.forecast_count(), 2u);
  const ClusterForecast& failed = sys.forecast(0);
  ASSERT_EQ(failed.model, nullptr);
  ASSERT_EQ(failed.fit_status.code(), StatusCode::kInternal);
  ASSERT_NE(sys.forecast(1).model, nullptr);

  // The cluster without a model answers with its fit_status; the other one
  // still forecasts.
  for (const StatusOr<double>& v :
       {NextClusterValue(failed, opts.forecaster.window),
        sys.ForecastCluster(0)}) {
    EXPECT_EQ(v.status().code(), StatusCode::kInternal);
    EXPECT_EQ(v.status().message(), failed.fit_status.message());
  }
  EXPECT_TRUE(NextClusterValue(sys.forecast(1), opts.forecaster.window).ok());
  EXPECT_TRUE(sys.ForecastCluster(1).ok());
  size_t in_failed = 0;
  for (size_t i = 0; i < sys.trace_count(); ++i) {
    auto v = sys.ForecastTrace(i);
    const int label = sys.clustering()->label(i);
    if (label == failed.cluster_id) {
      ++in_failed;
      EXPECT_EQ(v.status().code(), StatusCode::kInternal) << i;
    } else if (label == sys.forecast(1).cluster_id) {
      EXPECT_TRUE(v.ok()) << i;
    } else {
      EXPECT_EQ(v.status().code(), StatusCode::kNotFound) << i;
    }
  }
  EXPECT_GE(in_failed, 1u);
}

TEST(DBAugurSystemTest, TrainWithoutDataFails) {
  DBAugurSystem sys(FastOptions());
  EXPECT_EQ(sys.Train().code(), StatusCode::kFailedPrecondition);
}

TEST(DBAugurSystemTest, MisalignedResourceTraceRejected) {
  workloads::QueryLogOptions lopts;
  lopts.days = 1;
  auto log =
      workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), lopts);
  DBAugurSystem sys(FastOptions());
  ASSERT_TRUE(sys.IngestQueryLog(log).ok());
  sys.AddResourceTrace(ts::Series(0, 600, std::vector<double>(10, 0.5)));
  EXPECT_EQ(sys.Train().code(), StatusCode::kInvalidArgument);
}

// A Train that fails commits nothing: the traces, their refs and the
// forecasts stay those of the last Train that succeeded.
TEST(DBAugurSystemTest, FailedTrainKeepsTheLastTrainedTraces) {
  workloads::QueryLogOptions lopts;
  lopts.days = 2;
  lopts.seed = 61;
  auto log =
      workloads::GenerateQueryLog(workloads::BusTrackerTemplates(), lopts);
  DBAugurSystem sys(FastOptions());
  ASSERT_TRUE(sys.IngestQueryLog(log).ok());
  ASSERT_TRUE(sys.Train().ok());
  ASSERT_EQ(sys.trace_count(), 6u);
  std::vector<TraceRef> refs;
  std::vector<StatusOr<double>> forecasts;
  for (size_t i = 0; i < sys.trace_count(); ++i) {
    refs.push_back(sys.trace_ref(i));
    forecasts.push_back(sys.ForecastTrace(i));
  }

  // A one-day resource trace beside a two-day log: its length mismatches.
  workloads::AlibabaOptions aopts;
  aopts.days = 1;
  aopts.interval_seconds = 600;
  sys.AddResourceTrace(workloads::GenerateAlibabaDisk(aopts));
  ASSERT_EQ(sys.Train().code(), StatusCode::kInvalidArgument);

  ASSERT_NE(sys.clustering(), nullptr);
  EXPECT_EQ(sys.trace_count(), sys.clustering()->trace_count());
  ASSERT_EQ(sys.trace_count(), refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    EXPECT_EQ(sys.trace_ref(i).kind, refs[i].kind) << i;
    EXPECT_EQ(sys.trace_ref(i).index, refs[i].index) << i;
    EXPECT_EQ(sys.trace_ref(i).name, refs[i].name) << i;
    auto now = sys.ForecastTrace(i);
    ASSERT_EQ(now.status().code(), forecasts[i].status().code()) << i;
    if (now.ok()) {
      EXPECT_EQ(*now, *forecasts[i]) << i;
    }
  }
}

TEST(DBAugurSystemTest, ForecastGuards) {
  DBAugurSystem sys(FastOptions());
  EXPECT_EQ(sys.ForecastCluster(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sys.ForecastTrace(0).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dbaugur::core
