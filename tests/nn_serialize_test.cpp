// Round-trip tests for nn/serialize.cpp through real trained models. The
// float64 form is lossless, so a restored model forecasts bit-identically.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/binio.h"
#include "models/lstm_forecaster.h"
#include "models/mlp.h"
#include "models/tcn.h"
#include "models/wfgan.h"
#include "nn/serialize.h"

namespace dbaugur::nn {
namespace {

std::vector<double> SyntheticSeries(size_t n) {
  std::vector<double> s(n);
  for (size_t i = 0; i < n; ++i) {
    double t = static_cast<double>(i);
    s[i] = 50.0 + 20.0 * std::sin(t * 0.3) + 5.0 * std::sin(t * 1.7);
  }
  return s;
}

models::ForecasterOptions SmallOptions() {
  models::ForecasterOptions opts;
  opts.window = 8;
  opts.horizon = 1;
  opts.epochs = 2;
  opts.batch_size = 16;
  return opts;
}

TEST(SerializeTest, MlpRoundTripRestoresForecasts) {
  std::vector<double> series = SyntheticSeries(120);
  models::ForecasterOptions opts = SmallOptions();

  models::MlpForecaster trained(opts);
  ASSERT_TRUE(trained.Fit(series).ok());
  std::vector<uint8_t> buf = SerializeParamsF64(trained.Params());

  // Restore into a model with different initial weights (different seed) but
  // the same architecture and scaler (fitted on the same series).
  opts.seed = 7;
  models::MlpForecaster restored(opts);
  ASSERT_TRUE(restored.Fit(series).ok());
  std::vector<Param> restored_params = restored.Params();
  ASSERT_TRUE(DeserializeParams(buf, restored_params).ok());

  std::vector<double> window(series.end() - static_cast<long>(opts.window),
                             series.end());
  auto a = trained.Predict(window);
  auto b = restored.Predict(window);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b) << "restored MLP forecast differs from the original";

  // Re-serializing the restored model reproduces the buffer byte for byte.
  EXPECT_EQ(SerializeParamsF64(restored.Params()), buf);
}

TEST(SerializeTest, LstmRoundTripRestoresForecasts) {
  std::vector<double> series = SyntheticSeries(120);
  models::ForecasterOptions opts = SmallOptions();
  models::LstmOptions lopts;
  lopts.hidden = 8;

  models::LstmForecaster trained(opts, lopts);
  ASSERT_TRUE(trained.Fit(series).ok());
  std::vector<uint8_t> buf = SerializeParamsF64(trained.Params());

  opts.seed = 9;
  models::LstmForecaster restored(opts, lopts);
  ASSERT_TRUE(restored.Fit(series).ok());
  std::vector<Param> restored_params = restored.Params();
  ASSERT_TRUE(DeserializeParams(buf, restored_params).ok());

  std::vector<double> window(series.end() - static_cast<long>(opts.window),
                             series.end());
  auto a = trained.Predict(window);
  auto b = restored.Predict(window);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b) << "restored LSTM forecast differs from the original";

  EXPECT_EQ(SerializeParamsF64(restored.Params()), buf);
}

TEST(SerializeTest, RejectsBadMagic) {
  Matrix v(2, 3, 1.5), g(2, 3);
  std::vector<Param> params = {{&v, &g, "w"}};
  std::vector<uint8_t> buf = SerializeParamsF64(params);
  buf[0] ^= 0xFF;
  Status st = DeserializeParams(buf, params);
  EXPECT_FALSE(st.ok());
}

TEST(SerializeTest, RejectsCountMismatch) {
  Matrix v(2, 3, 1.5), g(2, 3);
  Matrix v2(1, 4, 0.5), g2(1, 4);
  std::vector<Param> both = {{&v, &g, "w"}, {&v2, &g2, "b"}};
  std::vector<uint8_t> buf = SerializeParamsF64(both);
  std::vector<Param> fewer = {{&v, &g, "w"}};
  EXPECT_FALSE(DeserializeParams(buf, fewer).ok());
}

TEST(SerializeTest, RejectsShapeMismatch) {
  Matrix v(2, 3, 1.5), g(2, 3);
  std::vector<Param> src = {{&v, &g, "w"}};
  std::vector<uint8_t> buf = SerializeParamsF64(src);
  Matrix w(3, 2, 0.0), gw(3, 2);
  std::vector<Param> dst = {{&w, &gw, "w"}};
  EXPECT_FALSE(DeserializeParams(buf, dst).ok());
}

// A two-tensor buffer whose first tensor is valid and whose last is cut
// short, or has another shape than its destination, is rejected before any
// destination tensor is written.
void ExpectFailedLoadLeavesParamsUnchanged() {
  Matrix v(2, 3, 1.0), g(2, 3), v2(4, 4, 1.5), g2(4, 4);
  std::vector<Param> src = {{&v, &g, "w"}, {&v2, &g2, "b"}};
  std::vector<uint8_t> buf = SerializeParamsF64(src);
  std::vector<uint8_t> cut(buf.begin(), buf.end() - 5);  // inside tensor 2
  Matrix w(2, 3, 7.0), gw(2, 3), w2(4, 4, 9.0), gw2(4, 4);
  std::vector<Param> dst = {{&w, &gw, "w"}, {&w2, &gw2, "b"}};
  const Matrix w_before = w, w2_before = w2;
  EXPECT_FALSE(DeserializeParams(cut, dst).ok());
  EXPECT_TRUE(w.BitwiseEqual(w_before));
  EXPECT_TRUE(w2.BitwiseEqual(w2_before));

  Matrix x(2, 3, 7.0), gx(2, 3), x2(2, 8, 9.0), gx2(2, 8);  // 16 values too
  std::vector<Param> reshaped = {{&x, &gx, "w"}, {&x2, &gx2, "b"}};
  const Matrix x_before = x, x2_before = x2;
  EXPECT_FALSE(DeserializeParams(buf, reshaped).ok());
  EXPECT_TRUE(x.BitwiseEqual(x_before));
  EXPECT_TRUE(x2.BitwiseEqual(x2_before));
}

TEST(SerializeTest, RejectsTruncatedBuffer) {
  Matrix v(4, 4, 2.0), g(4, 4);
  std::vector<Param> params = {{&v, &g, "w"}};
  std::vector<uint8_t> buf = SerializeParamsF64(params);
  buf.resize(buf.size() - 5);
  EXPECT_FALSE(DeserializeParams(buf, params).ok());
}

TEST(SerializeTest, F64RoundTripIsBitExact) {
  // Values a float32 form would lose bits on.
  Matrix v(2, 2);
  v(0, 0) = 1.0 / 3.0;
  v(0, 1) = 1e-300;
  v(1, 0) = -0.0;
  v(1, 1) = 123456789.123456789;
  Matrix g(2, 2);
  std::vector<Param> src = {{&v, &g, "w"}};
  std::vector<uint8_t> f64 = SerializeParamsF64(src);

  Matrix w(2, 2, 0.0), gw(2, 2);
  std::vector<Param> dst = {{&w, &gw, "w"}};
  ASSERT_TRUE(DeserializeParams(f64, dst).ok());
  EXPECT_TRUE(w.BitwiseEqual(v));
}

TEST(SerializeTest, F64RejectsTruncationAndShapeMismatch) {
  Matrix v(3, 3, 0.25), g(3, 3);
  std::vector<Param> src = {{&v, &g, "w"}};
  std::vector<uint8_t> buf = SerializeParamsF64(src);
  std::vector<uint8_t> cut = buf;
  cut.resize(cut.size() - 3);
  EXPECT_FALSE(DeserializeParams(cut, src).ok());
  Matrix w(3, 2, 0.0), gw(3, 2);
  std::vector<Param> bad = {{&w, &gw, "w"}};
  EXPECT_FALSE(DeserializeParams(buf, bad).ok());
  ExpectFailedLoadLeavesParamsUnchanged();
}

// Model-level state round trips: every ensemble member must restore to
// bit-identical forecasts from SaveState/LoadState (float64 + scalers).
template <typename Model>
void ExpectStateRoundTripBitExact(const models::ForecasterOptions& opts) {
  std::vector<double> series = SyntheticSeries(120);
  Model model(opts);
  ASSERT_TRUE(model.Fit(series).ok());
  auto blob = model.SaveState();
  ASSERT_TRUE(blob.ok());

  Model restored(opts);
  ASSERT_TRUE(restored.LoadState(*blob).ok());
  std::vector<double> w(series.end() - static_cast<ptrdiff_t>(opts.window),
                        series.end());
  auto a = model.Predict(w);
  auto b = restored.Predict(w);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);

  // Corruption is rejected and the target stays un-fitted.
  Model fresh(opts);
  std::vector<uint8_t> bad = *blob;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(fresh.LoadState(bad).ok());
  EXPECT_FALSE(fresh.Predict(w).ok());

  // A blob of other weights whose parameter section ends inside its last
  // tensor is rejected by a fitted model, which keeps forecasting exactly
  // as before: no earlier tensor was overwritten.
  models::ForecasterOptions other_opts = opts;
  other_opts.seed = opts.seed + 1;
  Model other(other_opts);
  ASSERT_TRUE(other.Fit(series).ok());
  auto other_blob = other.SaveState();
  ASSERT_TRUE(other_blob.ok());
  // The parameter section is the length-prefixed tail after the magic, the
  // scaler count and one scaler (fitted flag, min, max). Re-frame it 3 bytes
  // short.
  const size_t header = 4 + 4 + 1 + 8 + 8;
  std::vector<uint8_t> params(other_blob->begin() + header + 4,
                              other_blob->end() - 3);
  BufWriter cut;
  for (size_t i = 0; i < header; ++i) cut.U8((*other_blob)[i]);
  cut.Bytes(params);
  EXPECT_FALSE(model.LoadState(cut.Take()).ok());
  auto after = model.Predict(w);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *a);
}

TEST(ModelStateTest, MlpRoundTripBitExact) {
  models::ForecasterOptions opts = SmallOptions();
  ExpectStateRoundTripBitExact<models::MlpForecaster>(opts);
}

TEST(ModelStateTest, LstmRoundTripBitExact) {
  models::ForecasterOptions opts = SmallOptions();
  ExpectStateRoundTripBitExact<models::LstmForecaster>(opts);
}

TEST(ModelStateTest, TcnRoundTripBitExact) {
  models::ForecasterOptions opts = SmallOptions();
  ExpectStateRoundTripBitExact<models::TcnForecaster>(opts);
}

TEST(ModelStateTest, WfganRoundTripBitExact) {
  models::ForecasterOptions opts = SmallOptions();
  opts.epochs = 1;  // GAN epochs are the slow part; weights is what we test
  ExpectStateRoundTripBitExact<models::WfganForecaster>(opts);
}

}  // namespace
}  // namespace dbaugur::nn
