// Unit tests for src/common: Status, Rng, math utilities, table printer,
// thread pool, and the annotated Mutex/CondVar wrappers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace dbaugur {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad window");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(Mean(xs), 5.0, 0.1);
  EXPECT_NEAR(StdDev(xs), 2.0, 0.1);
}

TEST(RngTest, PoissonMean) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += static_cast<double>(rng.Poisson(4.0));
  EXPECT_NEAR(sum / 20000.0, 4.0, 0.1);
}

TEST(RngTest, PoissonNonPositiveRateIsZero) {
  Rng rng(2);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-3.0), 0);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(5);
  auto p = rng.Permutation(50);
  std::set<size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(6);
  auto s = rng.SampleWithoutReplacement(100, 10);
  std::set<size_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 10u);
}

TEST(MathTest, MeanVarianceStd) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(1.25));
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(MathTest, SigmoidStableAtExtremes) {
  EXPECT_NEAR(Sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(Sigmoid(1000.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000.0), 0.0, 1e-12);
}

TEST(MathTest, SolveLinearSystem) {
  // [2 1; 1 3] x = [5; 10] => x = [1, 3]? check: 2+3=5 yes, 1+9=10 yes.
  auto x = SolveLinearSystem({2, 1, 1, 3}, {5, 10}, 2);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-9);
  EXPECT_NEAR((*x)[1], 3.0, 1e-9);
}

TEST(MathTest, SolveSingularFails) {
  auto x = SolveLinearSystem({1, 2, 2, 4}, {3, 6}, 2);
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInternal);
}

TEST(MathTest, SolveDimensionMismatch) {
  auto x = SolveLinearSystem({1, 2, 3}, {1, 2}, 2);
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kInvalidArgument);
}

TEST(MathTest, LeastSquaresRecoversLine) {
  // y = 3x + 2 with x in {0..9}; columns: [x, 1].
  std::vector<double> X, y;
  for (int i = 0; i < 10; ++i) {
    X.push_back(i);
    X.push_back(1.0);
    y.push_back(3.0 * i + 2.0);
  }
  auto beta = LeastSquares(X, y, 10, 2);
  ASSERT_TRUE(beta.ok());
  EXPECT_NEAR((*beta)[0], 3.0, 1e-6);
  EXPECT_NEAR((*beta)[1], 2.0, 1e-5);
}

TEST(MathTest, LeastSquaresUnderdetermined) {
  auto beta = LeastSquares({1, 2}, {1}, 1, 2);
  EXPECT_FALSE(beta.ok());
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The checkpoint byte layout: every scalar least-significant byte first on
// any host, doubles by their bit pattern, strings and blobs behind a u32
// length.
TEST(BinIoTest, ScalarsAreLittleEndianAndBitExact) {
  static constexpr uint64_t kNanBits = 0x7FF8000000000123ull;  // quiet NaN
  double nan = 0.0;
  std::memcpy(&nan, &kNanBits, sizeof(nan));
  const std::vector<uint8_t> blob = {0xDE, 0xAD, 0xBE};

  BufWriter w;
  w.U8(0xAB);
  w.U32(0x01020304u);
  w.U64(0x0102030405060708ull);
  w.I32(-1);
  w.I64(std::numeric_limits<int64_t>::min());
  w.F64(-0.0);
  w.F64(nan);
  w.Str("ab");
  w.Bytes(blob);
  const std::vector<uint8_t> expected = {
      0xAB,                                            // U8
      0x04, 0x03, 0x02, 0x01,                          // U32
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // U64
      0xFF, 0xFF, 0xFF, 0xFF,                          // I32 -1
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // I64 min
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // F64 -0.0
      0x23, 0x01, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x7F,  // F64 NaN
      0x02, 0x00, 0x00, 0x00, 'a',  'b',               // Str
      0x03, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE,        // Bytes
  };
  EXPECT_EQ(w.buffer(), expected);

  // Each field's encoded size and a reader that checks the value it reads;
  // a reader returns false only when BufReader refuses the read.
  struct Field {
    size_t bytes;
    std::function<bool(BufReader&)> read;
  };
  const std::vector<Field> fields = {
      {1, [](BufReader& r) {
         uint8_t v = 0;
         if (!r.U8(&v)) return false;
         EXPECT_EQ(v, 0xAB);
         return true;
       }},
      {4, [](BufReader& r) {
         uint32_t v = 0;
         if (!r.U32(&v)) return false;
         EXPECT_EQ(v, 0x01020304u);
         return true;
       }},
      {8, [](BufReader& r) {
         uint64_t v = 0;
         if (!r.U64(&v)) return false;
         EXPECT_EQ(v, 0x0102030405060708ull);
         return true;
       }},
      {4, [](BufReader& r) {
         int32_t v = 0;
         if (!r.I32(&v)) return false;
         EXPECT_EQ(v, -1);
         return true;
       }},
      {8, [](BufReader& r) {
         int64_t v = 0;
         if (!r.I64(&v)) return false;
         EXPECT_EQ(v, std::numeric_limits<int64_t>::min());
         return true;
       }},
      {8, [](BufReader& r) {
         double v = 1.0;
         if (!r.F64(&v)) return false;
         EXPECT_EQ(Bits(v), Bits(-0.0));
         return true;
       }},
      {8, [](BufReader& r) {
         double v = 0.0;
         if (!r.F64(&v)) return false;
         EXPECT_EQ(Bits(v), kNanBits);
         return true;
       }},
      {6, [](BufReader& r) {
         std::string v;
         if (!r.Str(&v)) return false;
         EXPECT_EQ(v, "ab");
         return true;
       }},
      {7, [&blob](BufReader& r) {
         std::vector<uint8_t> v;
         if (!r.Bytes(&v)) return false;
         EXPECT_EQ(v, blob);
         return true;
       }},
  };

  BufReader r(expected);
  for (const Field& f : fields) EXPECT_TRUE(f.read(r));
  EXPECT_TRUE(r.AtEnd());

  // One byte short of each field: the fields before it read back, and the
  // field itself is refused.
  size_t end = 0;
  for (size_t k = 0; k < fields.size(); ++k) {
    end += fields[k].bytes;
    const std::vector<uint8_t> cut(
        expected.begin(), expected.begin() + static_cast<ptrdiff_t>(end - 1));
    BufReader cr(cut);
    for (size_t j = 0; j < k; ++j) ASSERT_TRUE(fields[j].read(cr));
    EXPECT_FALSE(fields[k].read(cr)) << "field " << k;
  }
  EXPECT_EQ(end, expected.size());
}

TEST(BinIoTest, SaveToFileWritesTheDocumentedFrame) {
  // The CRC-32 check value, whole and carried across a split.
  const std::string check = "123456789";
  const auto* digits = reinterpret_cast<const uint8_t*>(check.data());
  EXPECT_EQ(Crc32(digits, check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32(digits + 4, check.size() - 4, Crc32(digits, 4)),
            0xCBF43926u);

  const std::vector<uint8_t> payload = {0x00, 0x11, 0x22, 0xFF, 0x7E};
  const std::string path = ::testing::TempDir() + "dbaugur_binio_frame";
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  ASSERT_TRUE(SaveToFile(path, payload).ok());
  std::ifstream in(path, std::ios::binary);
  const std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());

  std::vector<uint8_t> expected = {
      0x1E, 0xF1, 0xA6, 0xDB,                          // magic 0xDBA6F11E
      0x01, 0x00, 0x00, 0x00,                          // version 1
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // U64 payload length
  };
  expected.insert(expected.end(), payload.begin(), payload.end());
  const uint32_t crc = Crc32(expected.data(), expected.size());
  for (int i = 0; i < 4; ++i) {
    expected.push_back(static_cast<uint8_t>(crc >> (8 * i)));  // footer, LE
  }
  EXPECT_EQ(file, expected);

  auto loaded = LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->blob, payload);
  EXPECT_FALSE(loaded->recovered_from_backup);
  std::remove(path.c_str());
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"model", "mse"});
  t.AddRow({"LR", "0.5"});
  t.AddRow({"WFGAN", "0.25"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("model"), std::string::npos);
  EXPECT_NE(out.find("WFGAN"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 3), "2.000");
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"x"});
  EXPECT_NO_THROW(t.ToString());
}

TEST(ThreadPoolTest, DefaultThreadCountIsAtLeastOne) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t grain : {size_t{1}, size_t{7}, size_t{1000}}) {
      constexpr size_t kN = 257;  // prime-ish: exercises a ragged last chunk
      std::vector<std::atomic<int>> hits(kN);
      ThreadPool pool(threads);
      pool.ParallelFor(kN, grain, [&](size_t begin, size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, kN);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads=" << threads
                                     << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroItemsNeverInvokesBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 4, [&](size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

// Sink capturing complete lines; the logging layer calls it under its mutex,
// but the capture keeps its own lock so the test doesn't rely on that.
struct LineCapture {
  Mutex mu;
  std::vector<std::string> lines;
  static void Sink(LogLevel, const std::string& line, void* user) {
    auto* self = static_cast<LineCapture*>(user);
    MutexLock lock(&self->mu);
    self->lines.push_back(line);
  }
};

TEST(LoggingTest, ConcurrentWritersNeverInterleaveWithinALine) {
  LineCapture capture;
  SetLogSink(&LineCapture::Sink, &capture);
  LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        DBAUGUR_INFO("writer " << t << " message " << i << " payload "
                               << "xxxxxxxxxxxxxxxx");
      }
    });
  }
  for (auto& w : writers) w.join();
  SetLogLevel(prev);
  SetLogSink(nullptr, nullptr);

  ASSERT_EQ(capture.lines.size(),
            static_cast<size_t>(kThreads) * kPerThread);
  for (const std::string& line : capture.lines) {
    // Each delivered line is exactly one well-formed message: correct
    // prefix, one trailing newline, the full payload intact.
    EXPECT_EQ(line.rfind("[dbaugur INFO] writer ", 0), 0u) << line;
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    EXPECT_NE(line.find("payload xxxxxxxxxxxxxxxx"), std::string::npos)
        << line;
  }
}

TEST(LoggingTest, NullSinkRestoresDefaultAndLevelFilters) {
  LineCapture capture;
  SetLogSink(&LineCapture::Sink, &capture);
  LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kWarn);
  DBAUGUR_DEBUG("should be filtered");
  DBAUGUR_WARN("should pass");
  SetLogLevel(prev);
  SetLogSink(nullptr, nullptr);
  ASSERT_EQ(capture.lines.size(), 1u);
  EXPECT_EQ(capture.lines[0], "[dbaugur WARN] should pass\n");
}

TEST(ThreadPoolTest, PoolIsReusableAcrossParallelForCalls) {
  ThreadPool pool(4);
  std::vector<double> acc(64, 0.0);
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(acc.size(), 8, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) acc[i] += 1.0;
    });
  }
  EXPECT_DOUBLE_EQ(std::accumulate(acc.begin(), acc.end(), 0.0), 5.0 * 64);
}

TEST(ThreadPoolTest, OneLaneRunsChunksInIndexOrder) {
  ThreadPool pool(1);
  std::vector<size_t> begins;
  pool.ParallelFor(10, 3, [&](size_t begin, size_t end) {
    EXPECT_EQ(end, std::min<size_t>(begin + 3, 10));
    begins.push_back(begin);
  });
  EXPECT_EQ(begins, (std::vector<size_t>{0, 3, 6, 9}));
}

// Two callers share one 4-lane pool at once, the way concurrent shard
// retrains share the service's fit pool. Each call must cover its own range
// exactly once and return, whichever lanes ran its chunks.
TEST(ThreadPoolTest, ConcurrentCallsEachCoverEveryIndexExactlyOnce) {
  constexpr size_t kN = 501;
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits_a(kN);
    std::vector<std::atomic<int>> hits_b(kN);
    auto run = [&pool](std::vector<std::atomic<int>>* hits) {
      pool.ParallelFor(kN, 3, [hits](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) (*hits)[i].fetch_add(1);
      });
    };
    std::thread other([&] { run(&hits_b); });
    run(&hits_a);
    other.join();
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits_a[i].load(), 1) << "caller a, index " << i;
      ASSERT_EQ(hits_b[i].load(), 1) << "caller b, index " << i;
    }
  }
}

// A body calls ParallelFor on its own pool, the way a shard retrain running
// on a lane fans its fits out. The inner call runs on its caller and any
// free lane, so it completes even when every lane is busy in the outer call.
TEST(ThreadPoolTest, NestedCallsCoverEveryIndexExactlyOnce) {
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 37;
  for (size_t threads : {size_t{2}, size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    pool.ParallelFor(kOuter, 1, [&](size_t begin, size_t end) {
      for (size_t o = begin; o < end; ++o) {
        pool.ParallelFor(kInner, 2, [&, o](size_t b, size_t e) {
          for (size_t i = b; i < e; ++i) hits[o * kInner + i].fetch_add(1);
        });
      }
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads=" << threads;
    }
  }
}

TEST(ThreadPoolTest, ConcurrencyNeverExceedsLaneCount) {
  constexpr size_t kLanes = 3;
  ThreadPool pool(kLanes);
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  pool.ParallelFor(12, 1, [&](size_t, size_t) {
    int now = in_flight.fetch_add(1, std::memory_order_acq_rel) + 1;
    int prev = peak.load(std::memory_order_relaxed);
    while (now > prev &&
           !peak.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    in_flight.fetch_sub(1, std::memory_order_acq_rel);
  });
  EXPECT_LE(peak.load(), static_cast<int>(kLanes));
  EXPECT_GE(peak.load(), 1);
}

// The annotated wrappers must behave exactly like the std primitives they
// shim (common/mutex.h): mutual exclusion, timed waits, notify wakeups.
TEST(MutexTest, MutexLockProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;  // deliberately unsynchronized except through mu
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kPerThread);
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  EXPECT_FALSE(mu.TryLock());
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WaitUntilTimesOutWhenNeverNotified) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  bool timed_out = cv.WaitUntil(
      &mu, std::chrono::steady_clock::now() + std::chrono::milliseconds(20));
  EXPECT_TRUE(timed_out);
}

TEST(CondVarTest, NotifyWakesWaiterAndMutexIsReheld) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool observed = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    observed = true;  // must hold mu again here
  });
  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  MutexLock lock(&mu);
  EXPECT_TRUE(observed);
}

}  // namespace
}  // namespace dbaugur
