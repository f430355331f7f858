// Grammar-driven end-to-end chaos harness (tests layer).
//
// ChaosMatrixTest sweeps 200 distinct seeds across the four stream profiles
// through the full RunChaos pipeline — raw log text through SQL2Template,
// pre-parsed events through the production ingest checked against the
// sequential differential reference, the Descender batch/sequential cross-
// check, and the deterministic migrate consumer. ChaosServiceTest adds the
// service leg at one shard (retrains, invariants, save → load → resume
// equality); ChaosReplayTest adds the dbsim replay leg. ChaosCorpusTest
// replays tests/chaos_corpus/corpus.txt, the regression corpus of seeds
// worth keeping. ChaosFaultTest arms fault storms and requires the
// conservation/invariant oracles to hold where exact equality is forfeit.
//
// Every failure message carries the harness repro line ("--seed=N
// --profile=P"), which regenerates the identical stream via
// bench/chaos_soak or a one-line test.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/harness.h"
#include "chaos/oracle.h"
#include "common/fault_injection.h"
#include "common/hashing.h"
#include "serve/ingestor.h"

namespace dbaugur::chaos {
namespace {

ChaosOptions MatrixOptions(uint64_t seed, StreamProfile profile) {
  ChaosOptions o;
  o.stream.seed = seed;
  o.stream.profile = profile;
  o.stream.bins = 36;
  o.stream.templates = 6;
  o.stream.mean_rate = 2.5;
  return o;
}

void RunSeedRange(StreamProfile profile, uint64_t first_seed, uint64_t seeds,
                  size_t shards = 0) {
  for (uint64_t s = first_seed; s < first_seed + seeds; ++s) {
    ChaosOptions o = MatrixOptions(s, profile);
    o.service_shards = shards;
    ChaosReport r = RunChaos(o);
    ASSERT_TRUE(r.ok) << r.Summary();
  }
}

// --- the 200-seed deterministic matrix (50 per profile) ---------------------

TEST(ChaosMatrixTest, Steady) {
  // The steady profile runs the service leg too: every seed's stream through
  // a 3-shard ShardedForecastService, checked against the single-stream
  // sequential reference (CompareShardedIngest) and, where the schedule is
  // exact, save → load → resume equality.
  RunSeedRange(StreamProfile::kSteady, 1000, 50, /*shards=*/3);
}

TEST(ChaosMatrixTest, TemplateChurn) {
  RunSeedRange(StreamProfile::kTemplateChurn, 1050, 50);
}

TEST(ChaosMatrixTest, BurstySkewed) {
  // Sharded leg with skewed/duplicate timestamps: when the reference stream
  // trips the global stale cutoff the exact oracle self-gates (per-shard
  // lateness watermarks legitimately diverge) but conservation and per-shard
  // snapshot invariants must still hold for every seed.
  RunSeedRange(StreamProfile::kBurstySkewed, 1100, 50, /*shards=*/2);
}

TEST(ChaosMatrixTest, MalformedHeavy) {
  RunSeedRange(StreamProfile::kMalformedHeavy, 1150, 50);
}

// --- stream generator properties -------------------------------------------

TEST(ChaosStreamTest, DeterministicInSeedAndProfile) {
  StreamOptions o;
  o.seed = 77;
  o.profile = StreamProfile::kBurstySkewed;
  o.bins = 24;
  o.templates = 8;
  GeneratedStream a = GenerateStream(o);
  GeneratedStream b = GenerateStream(o);
  ASSERT_EQ(a.items.size(), b.items.size());
  EXPECT_EQ(a.Text(), b.Text());
  EXPECT_EQ(a.truth.well_formed, b.truth.well_formed);
  EXPECT_EQ(a.truth.skewed_events, b.truth.skewed_events);
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].timestamp, b.items[i].timestamp) << i;
    EXPECT_EQ(a.items[i].line, b.items[i].line) << i;
  }
  o.seed = 78;
  GeneratedStream c = GenerateStream(o);
  EXPECT_NE(a.Text(), c.Text());
}

TEST(ChaosStreamTest, MalformedHeavyCoversEveryRejectClass) {
  StreamOptions o;
  o.seed = 5;
  o.profile = StreamProfile::kMalformedHeavy;
  o.bins = 48;
  o.templates = 8;
  GeneratedStream s = GenerateStream(o);
  EXPECT_GT(s.truth.well_formed, 0u);
  EXPECT_GT(s.truth.malformed_no_sql, 0u);
  EXPECT_GT(s.truth.malformed_bad_timestamp, 0u);
  EXPECT_GT(s.truth.bad_statements, 0u);
  EXPECT_GT(s.truth.bad_template_events, 0u);
}

TEST(ChaosStreamTest, BurstySkewedCoversSkewAndDuplicates) {
  StreamOptions o;
  o.seed = 9;
  o.profile = StreamProfile::kBurstySkewed;
  o.bins = 48;
  o.templates = 8;
  GeneratedStream s = GenerateStream(o);
  EXPECT_GT(s.truth.skewed_events, 0u);
  EXPECT_GT(s.truth.bad_template_events, 0u);
  EXPECT_GT(s.truth.duplicate_timestamps, 0u);
}

TEST(ChaosStreamTest, TemplateChurnSchedulesBirthsAndDeaths) {
  StreamOptions o;
  o.seed = 3;
  o.profile = StreamProfile::kTemplateChurn;
  o.bins = 48;
  o.templates = 8;
  GeneratedStream s = GenerateStream(o);
  bool any_churn = false;
  for (size_t slot = 0; slot < s.truth.birth_bin.size(); ++slot) {
    if (s.truth.birth_bin[slot] > 0 || s.truth.death_bin[slot] < o.bins) {
      any_churn = true;
    }
    EXPECT_LE(s.truth.birth_bin[slot], s.truth.death_bin[slot]) << slot;
  }
  EXPECT_TRUE(any_churn);
}

TEST(ChaosStreamTest, ProfileNamesRoundTrip) {
  for (StreamProfile p : AllProfiles()) {
    auto parsed = ParseProfile(ProfileName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(ParseProfile("no-such-profile").ok());
}

// --- single-shard service and replay legs -----------------------------------

ChaosOptions ServiceOptions(uint64_t seed, StreamProfile profile) {
  ChaosOptions o;
  o.stream.seed = seed;
  o.stream.profile = profile;
  o.stream.bins = 28;
  o.stream.templates = 4;
  o.stream.mean_rate = 2.0;
  o.service_shards = 1;
  return o;
}

TEST(ChaosServiceTest, SteadyFullServiceWithResumeEquality) {
  for (uint64_t seed : {2000u, 2001u}) {
    ChaosReport r = RunChaos(ServiceOptions(seed, StreamProfile::kSteady));
    ASSERT_TRUE(r.ok) << r.Summary();
  }
}

TEST(ChaosServiceTest, TemplateChurnFullService) {
  for (uint64_t seed : {2010u, 2011u}) {
    ChaosReport r =
        RunChaos(ServiceOptions(seed, StreamProfile::kTemplateChurn));
    ASSERT_TRUE(r.ok) << r.Summary();
  }
}

TEST(ChaosServiceTest, BurstySkewedFullServiceHoldsInvariants) {
  // Resume equality is skipped for this profile (the ingest lateness
  // reference is in-memory state); conservation and snapshot invariants
  // must still hold.
  ChaosReport r = RunChaos(ServiceOptions(2020, StreamProfile::kBurstySkewed));
  ASSERT_TRUE(r.ok) << r.Summary();
}

TEST(ChaosReplayTest, EveryProfileReplaysDeterministically) {
  uint64_t seed = 3000;
  for (StreamProfile p : AllProfiles()) {
    ChaosOptions o;
    o.stream.seed = seed++;
    o.stream.profile = p;
    o.stream.bins = 24;
    o.stream.templates = 6;
    o.stream.mean_rate = 2.0;
    o.replay = true;
    ChaosReport r = RunChaos(o);
    ASSERT_TRUE(r.ok) << r.Summary();
  }
}

// --- seed-corpus regression replay ------------------------------------------

struct CorpusEntry {
  uint64_t seed = 0;
  StreamProfile profile = StreamProfile::kSteady;
  bool replay = false;
  size_t shards = 0;
  size_t workers = 1;
  double deadline_seconds = 0.0;
  size_t budget = 0;
  size_t line = 0;
};

std::vector<CorpusEntry> LoadCorpus(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open corpus: " << path;
  std::vector<CorpusEntry> entries;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    std::istringstream fields(line);
    CorpusEntry e;
    e.line = lineno;
    std::string profile_name;
    if (!(fields >> e.seed >> profile_name)) continue;  // blank/comment line
    auto profile = ParseProfile(profile_name);
    EXPECT_TRUE(profile.ok())
        << "corpus line " << lineno << ": " << profile.status().message();
    if (!profile.ok()) continue;
    e.profile = *profile;
    std::string flag;
    bool bad_flag = false;
    while (fields >> flag) {
      if (flag == "replay") {
        e.replay = true;
      } else if (flag.rfind("shards=", 0) == 0) {
        e.shards = static_cast<size_t>(
            std::strtoull(flag.c_str() + 7, nullptr, 10));
        if (e.shards < 1) {
          ADD_FAILURE() << "corpus line " << lineno << ": shards=" << e.shards
                        << " (needs >= 1 to run the service leg)";
          bad_flag = true;
        }
      } else if (flag.rfind("workers=", 0) == 0) {
        e.workers = static_cast<size_t>(
            std::strtoull(flag.c_str() + 8, nullptr, 10));
        if (e.workers < 1) {
          ADD_FAILURE() << "corpus line " << lineno << ": workers=0";
          bad_flag = true;
        }
      } else if (flag.rfind("deadline=", 0) == 0) {
        e.deadline_seconds = std::strtod(flag.c_str() + 9, nullptr);
      } else if (flag.rfind("budget=", 0) == 0) {
        e.budget = static_cast<size_t>(
            std::strtoull(flag.c_str() + 7, nullptr, 10));
      } else {
        ADD_FAILURE() << "corpus line " << lineno << ": unknown flag '" << flag
                      << "'";
        bad_flag = true;
      }
    }
    if (!bad_flag) entries.push_back(e);
  }
  return entries;
}

TEST(ChaosCorpusTest, ReplaysEverySeedInTheCorpus) {
  const std::vector<CorpusEntry> corpus = LoadCorpus(DBAUGUR_CHAOS_CORPUS);
  ASSERT_FALSE(corpus.empty());
  for (const CorpusEntry& e : corpus) {
    ChaosOptions o = MatrixOptions(e.seed, e.profile);
    o.replay = e.replay;
    o.service_shards = e.shards;
    o.service_workers = e.workers;
    o.retrain_deadline_seconds = e.deadline_seconds;
    o.retrain_budget = e.budget;
    ChaosReport r = RunChaos(o);
    EXPECT_TRUE(r.ok) << "corpus line " << e.line << ": " << r.Summary();
  }
}

// --- fault storms ------------------------------------------------------------

class ChaosFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override {
    // Re-arm an externally provided spec (ctest runs one process per test,
    // but keep the fixture safe under manual --gtest_filter batching too).
    const char* env = std::getenv("DBAUGUR_FAULT_SPEC");
    if (env != nullptr && *env != '\0') {
      ASSERT_TRUE(fault::Configure(env).ok());
    } else {
      fault::Reset();
    }
  }
};

TEST_F(ChaosFaultTest, IngestCorruptionStormHoldsConservation) {
  ASSERT_TRUE(fault::Configure("serve.ingest.corrupt=at:3,10,77").ok());
  ChaosReport r =
      RunChaos(MatrixOptions(4242, StreamProfile::kBurstySkewed));
  EXPECT_TRUE(r.ok) << r.Summary();
}

TEST_F(ChaosFaultTest, ShardedLegHoldsConservationUnderStorm) {
  // Exact sharded equality is forfeit under an armed storm (the oracle
  // self-gates); per-shard conservation and snapshot invariants must survive.
  ASSERT_TRUE(fault::Configure("serve.ingest.corrupt=at:2,9,31;"
                               "serve.retrain.build=at:1")
                  .ok());
  ChaosOptions o = MatrixOptions(4245, StreamProfile::kSteady);
  o.service_shards = 3;
  ChaosReport r = RunChaos(o);
  EXPECT_TRUE(r.ok) << r.Summary();
}

TEST_F(ChaosFaultTest, RetrainStormKeepsServiceInvariants) {
  ASSERT_TRUE(fault::Configure("serve.retrain.build=at:1;"
                               "serve.retrain.diverge=at:2;"
                               "serve.ingest.corrupt=p:0.1:7")
                  .ok());
  ChaosReport r = RunChaos(ServiceOptions(4243, StreamProfile::kSteady));
  EXPECT_TRUE(r.ok) << r.Summary();
}

TEST_F(ChaosFaultTest, HangStormWatchdogKeepsShardedLegLive) {
  // Every retrain hangs at the serve.retrain.hang site (n:100 fires on every
  // hit, so the storm is deterministic at any worker count). The watchdog
  // must cancel each one within its 50ms deadline: the run completes, hung
  // shards keep serving their last-good (generation-0) snapshots, and router
  // conservation still balances.
  ASSERT_TRUE(fault::Configure("serve.retrain.hang=n:100").ok());
  ChaosOptions o = MatrixOptions(4246, StreamProfile::kSteady);
  o.service_shards = 3;
  o.service_workers = 2;
  o.retrain_deadline_seconds = 0.05;
  ChaosReport r = RunChaos(o);
  EXPECT_TRUE(r.ok) << r.Summary();
}

TEST_F(ChaosFaultTest, SlowStormUnderWideDeadlineCompletes) {
  // A few ~200ms retrains under a deadline wide enough that the watchdog
  // stays quiet: the storm slows cycles down but every invariant — and the
  // no-spurious-failure property — must survive.
  ASSERT_TRUE(fault::Configure("serve.retrain.slow=at:0,3").ok());
  ChaosOptions o = MatrixOptions(4247, StreamProfile::kBurstySkewed);
  o.service_shards = 2;
  o.service_workers = 2;
  o.retrain_deadline_seconds = 30.0;
  ChaosReport r = RunChaos(o);
  EXPECT_TRUE(r.ok) << r.Summary();
}

TEST_F(ChaosFaultTest, UnitBudgetLegHoldsExactIngestOracle) {
  // No faults (the fixture's SetUp disarms any env storm): a unit per-cycle
  // budget retrains one of three shards per cycle, and every cycle folds the
  // other two shards' queues. So besides conservation and the per-shard
  // snapshot invariants, the exact ingest oracle must hold bin for bin.
  ChaosOptions o = MatrixOptions(4248, StreamProfile::kSteady);
  o.service_shards = 3;
  o.service_workers = 2;
  o.retrain_budget = 1;
  ChaosReport r = RunChaos(o);
  EXPECT_TRUE(r.ok) << r.Summary();
}

TEST_F(ChaosFaultTest, EnvArmedStormRunsFullPipeline) {
  const char* env = std::getenv("DBAUGUR_FAULT_SPEC");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "DBAUGUR_FAULT_SPEC not set";
  }
  ASSERT_TRUE(fault::Configure(env).ok());
  ChaosOptions o = MatrixOptions(4244, StreamProfile::kMalformedHeavy);
  o.service_shards = 1;
  ChaosReport r = RunChaos(o);
  EXPECT_TRUE(r.ok) << r.Summary();
}

// --- oracles and reporting, exercised directly ------------------------------

TEST(ChaosOracleTest, CompareIngestCatchesABinDivergence) {
  std::vector<serve::TraceEvent> events;
  for (uint32_t i = 0; i < 6; ++i) {
    events.push_back({i % 2, static_cast<ts::Timestamp>(i * 100), 2.0});
  }
  serve::TraceIngestor ing(serve::IngestorOptions{64, 16});
  serve::TraceBinner bin(600);
  std::vector<serve::TraceEvent> drained;
  for (const serve::TraceEvent& e : events) ASSERT_TRUE(ing.Offer(e));
  ing.Drain(&drained);
  for (const serve::TraceEvent& e : drained) bin.Fold(e);
  ReferenceOptions ropts;
  ropts.max_templates = 16;
  const ReferenceResult ref = RunSequentialReference(events, ropts);
  ASSERT_TRUE(CompareIngest(ref, ing, bin).ok());
  // One extra fold makes the production history diverge from the reference.
  bin.Fold({0, 0, 1.0});
  Status st = CompareIngest(ref, ing, bin);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("differential mismatch"), std::string::npos)
      << st.message();
}

TEST(ChaosOracleTest, CompareShardedIngestCatchesRoutingAndBinDivergence) {
  std::vector<serve::TraceEvent> events;
  for (uint32_t i = 0; i < 8; ++i) {
    events.push_back({i % 4, static_cast<ts::Timestamp>(i * 100), 3.0});
  }
  ReferenceOptions ropts;
  ropts.max_templates = 16;
  const ReferenceResult ref = RunSequentialReference(events, ropts);

  // Distribute the reference's own bins onto the shards the routing hash
  // names: by construction this must compare equal.
  const size_t kShards = 2;
  std::vector<ShardIngestView> views(kShards);
  for (const auto& [tmpl, bins] : ref.bins) {
    ShardIngestView& v = views[ShardOfKey(tmpl, kShards)];
    v.bins[tmpl] = bins;
    for (const auto& [bin, count] : bins) {
      (void)bin;
      v.accepted += static_cast<uint64_t>(count / 3.0);
    }
  }
  ASSERT_TRUE(CompareShardedIngest(ref, views).ok());

  // A template binned on the wrong shard is a routing violation.
  {
    std::vector<ShardIngestView> bad = views;
    const uint32_t tmpl = ref.bins.begin()->first;
    const size_t owner = ShardOfKey(tmpl, kShards);
    bad[1 - owner].bins[tmpl] = bad[owner].bins[tmpl];
    bad[owner].bins.erase(tmpl);
    Status st = CompareShardedIngest(ref, bad);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("routing"), std::string::npos) << st.message();
  }

  // A diverging binned value on the owning shard is caught by name.
  {
    std::vector<ShardIngestView> bad = views;
    const uint32_t tmpl = ref.bins.begin()->first;
    bad[ShardOfKey(tmpl, kShards)].bins[tmpl].begin()->second += 1.0;
    Status st = CompareShardedIngest(ref, bad);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("template " + std::to_string(tmpl)),
              std::string::npos)
        << st.message();
  }

  // Losing an accepted event breaks the accepted-sum check.
  {
    std::vector<ShardIngestView> bad = views;
    bad[0].accepted -= 1;
    bad[0].bins.clear();  // keep the union check from firing first
    bad[1].bins.clear();
    Status st = CompareShardedIngest(ref, bad);
    EXPECT_FALSE(st.ok());
  }
}

TEST(ChaosOracleTest, ConservationCountsEveryOfferExactlyOnce) {
  serve::TraceIngestor ing(serve::IngestorOptions{2, 4});
  ing.Offer({0, 0, 1.0});
  ing.Offer({9, 0, 1.0});   // bad template id
  ing.Offer({1, 0, -1.0});  // negative count
  ing.Offer({1, 10, 1.0});
  ing.Offer({1, 20, 1.0});  // queue full (capacity 2)
  EXPECT_TRUE(CheckIngestConservation(5, ing).ok());
  EXPECT_FALSE(CheckIngestConservation(6, ing).ok());
}

TEST(ChaosReportTest, SummaryCarriesReproAndWindow) {
  ChaosReport ok_report;
  ok_report.repro = "--seed=7 --profile=steady";
  EXPECT_NE(ok_report.Summary().find("--seed=7"), std::string::npos);

  ChaosReport bad;
  bad.ok = false;
  bad.stage = "events";
  bad.failure = "differential mismatch: demo";
  bad.repro = "--seed=9 --profile=bursty-skewed";
  bad.window = FormatEventWindow({{1, 100, 1.0}, {2, 200, 1.0}}, 2, 8);
  const std::string s = bad.Summary();
  EXPECT_NE(s.find("stage events"), std::string::npos) << s;
  EXPECT_NE(s.find("--seed=9 --profile=bursty-skewed"), std::string::npos);
  EXPECT_NE(s.find("template=2"), std::string::npos) << s;
}

TEST(ChaosReportTest, FailuresReproduceFromTheirReproLine) {
  // Determinism behind the repro contract: identical options produce
  // identical reports (and identical streams).
  ChaosOptions o = MatrixOptions(1234, StreamProfile::kMalformedHeavy);
  ChaosReport a = RunChaos(o);
  ChaosReport b = RunChaos(o);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.repro, b.repro);
  EXPECT_EQ(GenerateStream(o.stream).Text(), GenerateStream(o.stream).Text());
}

TEST(ChaosMinimizeTest, FindsTheMonotoneBoundary) {
  size_t calls = 0;
  size_t got = MinimizeFailingPrefix(1000, [&](size_t n) {
    ++calls;
    return n >= 637;
  });
  EXPECT_EQ(got, 637u);
  EXPECT_LT(calls, 30u);  // binary search, not a linear scan
}

TEST(ChaosMinimizeTest, FallsBackOnNonMonotonePredicates) {
  // Fails only at exactly 5: bisection's assumption breaks, the linear
  // fallback must still find it.
  EXPECT_EQ(MinimizeFailingPrefix(100, [](size_t n) { return n == 5; }), 5u);
  EXPECT_EQ(MinimizeFailingPrefix(8, [](size_t) { return true; }), 1u);
  EXPECT_EQ(MinimizeFailingPrefix(0, [](size_t) { return true; }), 0u);
}

}  // namespace
}  // namespace dbaugur::chaos
