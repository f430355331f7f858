// Property-based tests (parameterized sweeps) on the library's core
// invariants: DTW metric-like properties across window sizes, lower-bound
// soundness, scaler round-trips, templater idempotence, window-dataset
// alignment, serialization round-trips, and ensemble weight normalization.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dtw/dtw.h"
#include "ensemble/time_sensitive_ensemble.h"
#include "models/mlp.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/serialize.h"
#include "sql/templater.h"
#include "ts/scaler.h"
#include "ts/window_dataset.h"

namespace dbaugur {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = scale * rng.Gaussian();
  return v;
}

// ---------- DTW properties across window sizes ----------

class DtwWindowProperty : public ::testing::TestWithParam<int> {};

TEST_P(DtwWindowProperty, SelfDistanceZero) {
  auto v = RandomSeries(64, 11);
  auto d = dtw::DtwDistance(v, v, {GetParam()});
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(*d, 0.0);
}

TEST_P(DtwWindowProperty, Symmetry) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto a = RandomSeries(48, 100 + seed);
    auto b = RandomSeries(48, 200 + seed);
    auto ab = dtw::DtwDistance(a, b, {GetParam()});
    auto ba = dtw::DtwDistance(b, a, {GetParam()});
    ASSERT_TRUE(ab.ok());
    ASSERT_TRUE(ba.ok());
    EXPECT_NEAR(*ab, *ba, 1e-9);
  }
}

TEST_P(DtwWindowProperty, NonNegativeAndBoundedByEuclidean) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto a = RandomSeries(48, 300 + seed);
    auto b = RandomSeries(48, 400 + seed);
    auto d = dtw::DtwDistance(a, b, {GetParam()});
    ASSERT_TRUE(d.ok());
    EXPECT_GE(*d, 0.0);
    double euclid = 0;
    for (size_t i = 0; i < a.size(); ++i) euclid += (a[i] - b[i]) * (a[i] - b[i]);
    EXPECT_LE(*d, std::sqrt(euclid) + 1e-9);
  }
}

TEST_P(DtwWindowProperty, WiderWindowNeverIncreasesDistance) {
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto a = RandomSeries(48, 500 + seed);
    auto b = RandomSeries(48, 600 + seed);
    auto narrow = dtw::DtwDistance(a, b, {GetParam()});
    auto wider = dtw::DtwDistance(a, b, {GetParam() + 5});
    ASSERT_TRUE(narrow.ok());
    ASSERT_TRUE(wider.ok());
    EXPECT_LE(*wider, *narrow + 1e-9);
  }
}

TEST_P(DtwWindowProperty, LowerBoundsAreSound) {
  int w = GetParam();
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto a = RandomSeries(40, 700 + seed);
    auto b = RandomSeries(40, 800 + seed);
    auto d = dtw::DtwDistance(a, b, {w});
    ASSERT_TRUE(d.ok());
    EXPECT_LE(dtw::LbKim(a, b), *d + 1e-9);
    EXPECT_LE(dtw::LbKeogh(a, dtw::BuildEnvelope(b, w)), *d + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, DtwWindowProperty,
                         ::testing::Values(0, 1, 2, 5, 10, 20, 48));

// ---------- scaler round-trips across scales ----------

class ScalerProperty : public ::testing::TestWithParam<double> {};

TEST_P(ScalerProperty, MinMaxRoundTrip) {
  auto v = RandomSeries(200, 31, GetParam());
  ts::MinMaxScaler s;
  ASSERT_TRUE(s.Fit(v).ok());
  for (size_t i = 0; i < v.size(); i += 13) {
    double t = s.Transform(v[i]);
    EXPECT_GE(t, -1e-12);
    EXPECT_LE(t, 1.0 + 1e-12);
    EXPECT_NEAR(s.Inverse(t), v[i], 1e-9 * std::max(1.0, GetParam()));
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ScalerProperty,
                         ::testing::Values(1e-3, 1.0, 1e3, 1e6));

// ---------- templater idempotence over statement shapes ----------

class TemplaterProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(TemplaterProperty, Idempotent) {
  auto once = sql::ToTemplate(GetParam());
  ASSERT_TRUE(once.ok()) << GetParam();
  auto twice = sql::ToTemplate(*once);
  ASSERT_TRUE(twice.ok()) << *once;
  EXPECT_EQ(*once, *twice);
}

TEST_P(TemplaterProperty, FingerprintStable) {
  auto t = sql::ToTemplate(GetParam());
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(sql::Fingerprint(*t), sql::Fingerprint(*t));
}

INSTANTIATE_TEST_SUITE_P(
    Statements, TemplaterProperty,
    ::testing::Values(
        "SELECT * FROM t WHERE id = 5",
        "SELECT a, c, b FROM t WHERE x > 3 AND y < 2",
        "SELECT * FROM B JOIN A ON B.id = A.id",
        "UPDATE t SET a = 1, b = 'x' WHERE k = 9",
        "SELECT * FROM t WHERE id IN (1, 2, 3) AND name = 'bob'",
        "SELECT count FROM t WHERE 7 = id",
        "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3",
        "SELECT DISTINCT b, a FROM t"));

// ---------- window dataset alignment across (window, horizon) ----------

class WindowProperty
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(WindowProperty, TargetsAlignedWithSource) {
  auto [w, h] = GetParam();
  std::vector<double> v(100);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  auto ws = ts::MakeWindows(v, {w, h, 1});
  ASSERT_TRUE(ws.ok());
  EXPECT_EQ(ws->size(), v.size() - w - h + 1);
  for (const auto& s : *ws) {
    ASSERT_EQ(s.window.size(), w);
    // Window is consecutive integers; target is horizon past the end.
    for (size_t j = 1; j < w; ++j) {
      EXPECT_DOUBLE_EQ(s.window[j], s.window[j - 1] + 1.0);
    }
    EXPECT_DOUBLE_EQ(s.target, s.window.back() + static_cast<double>(h));
    EXPECT_DOUBLE_EQ(v[s.target_index], s.target);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowProperty,
    ::testing::Values(std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{5, 1},
                      std::pair<size_t, size_t>{30, 1},
                      std::pair<size_t, size_t>{10, 7},
                      std::pair<size_t, size_t>{30, 36},
                      std::pair<size_t, size_t>{60, 36}));

// ---------- serialization round-trips across layer shapes ----------

class SerializeProperty
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SerializeProperty, DenseRoundTrip) {
  auto [in, out] = GetParam();
  Rng rng(41);
  nn::Dense a(in, out, nn::Activation::kTanh, &rng);
  nn::Dense b(in, out, nn::Activation::kTanh, &rng);  // different init
  auto params_a = a.Params();
  auto params_b = b.Params();
  // Table II's storage: the header, then a weight and a bias tensor, each
  // with its 8-byte shape and 4 bytes per value.
  const auto n_in = static_cast<int64_t>(in), n_out = static_cast<int64_t>(out);
  EXPECT_EQ(nn::StorageBytes(params_a),
            8 + (8 + 4 * n_in * n_out) + (8 + 4 * n_out));
  auto bytes = nn::SerializeParamsF64(params_a);
  ASSERT_TRUE(nn::DeserializeParams(bytes, params_b).ok());
  for (size_t p = 0; p < params_a.size(); ++p) {
    EXPECT_TRUE(params_b[p].value->BitwiseEqual(*params_a[p].value));
  }
}

TEST_P(SerializeProperty, CorruptBufferRejected) {
  auto [in, out] = GetParam();
  Rng rng(43);
  nn::Dense a(in, out, nn::Activation::kIdentity, &rng);
  auto params = a.Params();
  auto bytes = nn::SerializeParamsF64(params);
  bytes.resize(bytes.size() / 2);  // truncate
  EXPECT_FALSE(nn::DeserializeParams(bytes, params).ok());
  std::vector<uint8_t> garbage = {1, 2, 3};
  EXPECT_FALSE(nn::DeserializeParams(garbage, params).ok());
}

INSTANTIATE_TEST_SUITE_P(Shapes, SerializeProperty,
                         ::testing::Values(std::pair<size_t, size_t>{1, 1},
                                           std::pair<size_t, size_t>{4, 7},
                                           std::pair<size_t, size_t>{30, 1},
                                           std::pair<size_t, size_t>{16, 32}));

// ---------- ensemble weights normalize for any member count ----------

class EnsembleSizeProperty : public ::testing::TestWithParam<size_t> {};

class FixedPrediction : public models::Forecaster {
 public:
  explicit FixedPrediction(double v) : v_(v) {}
  Status Fit(const std::vector<double>&) override { return Status::OK(); }
  StatusOr<double> Predict(const std::vector<double>&) const override {
    return v_;
  }
  std::string name() const override { return "Fixed"; }
  int64_t StorageBytes() const override { return 8; }

 private:
  double v_;
};

TEST_P(EnsembleSizeProperty, WeightsSumToOneAfterObservations) {
  size_t n = GetParam();
  ensemble::TimeSensitiveEnsemble ens({0.9, true});
  for (size_t i = 0; i < n; ++i) {
    ens.AddMember(std::make_unique<FixedPrediction>(static_cast<double>(i)));
  }
  ASSERT_TRUE(ens.Fit(std::vector<double>(20, 0.0)).ok());
  std::vector<double> window(4, 0.0);
  for (int step = 0; step < 5; ++step) {
    ASSERT_TRUE(ens.Observe(window, 0.5).ok());
    auto w = ens.CurrentWeights();
    double sum = 0;
    for (double wi : w) {
      EXPECT_GE(wi, -1e-12);
      sum += wi;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  // The best member (prediction 0, error 0.25) carries the largest weight.
  auto w = ens.CurrentWeights();
  for (size_t i = 1; i < n; ++i) EXPECT_GE(w[0], w[i]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnsembleSizeProperty,
                         ::testing::Values(2, 3, 4, 7));

// ---------- MLP learning is monotone in data quality ----------

class MlpNoiseProperty : public ::testing::TestWithParam<double> {};

TEST_P(MlpNoiseProperty, FitsAtLeastTheSignal) {
  // For any noise level, the trained MLP's test MSE stays within a small
  // multiple of the irreducible noise variance on a pure sine target.
  double noise = GetParam();
  Rng rng(47);
  std::vector<double> v(800);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = 10 + 5 * std::sin(2 * M_PI * static_cast<double>(i) / 32.0) +
           rng.Gaussian(0, noise);
  }
  models::ForecasterOptions opts;
  opts.window = 16;
  opts.horizon = 1;
  opts.epochs = 20;
  models::MlpForecaster mlp(opts);
  std::vector<double> train(v.begin(), v.begin() + 600);
  ASSERT_TRUE(mlp.Fit(train).ok());
  auto eval = models::EvaluateForecaster(mlp, v, 600, 16, 1);
  ASSERT_TRUE(eval.ok());
  double mse = 0;
  for (size_t i = 0; i < eval->predicted.size(); ++i) {
    double e = eval->predicted[i] - eval->actual[i];
    mse += e * e;
  }
  mse /= static_cast<double>(eval->predicted.size());
  EXPECT_LT(mse, noise * noise * 3.0 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, MlpNoiseProperty,
                         ::testing::Values(0.0, 0.2, 1.0, 2.0));

}  // namespace
}  // namespace dbaugur
