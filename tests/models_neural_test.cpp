// Tests for the neural forecasters (MLP, LSTM, TCN, WFGAN, multi-task WFGAN):
// each must actually learn a predictable synthetic signal, beating the naive
// persistence ("repeat last value") baseline by a wide margin.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "models/lstm_forecaster.h"
#include "models/mlp.h"
#include "models/tcn.h"
#include "models/wfgan.h"
#include "models/wfgan_multitask.h"
#include "ts/metrics.h"

namespace dbaugur::models {
namespace {

std::vector<double> SineSeries(size_t n, double period, double noise_sd,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 10.0 + 5.0 * std::sin(2.0 * M_PI * static_cast<double>(i) / period) +
           rng.Gaussian(0.0, noise_sd);
  }
  return v;
}

// MSE of predicting x_{t+h} = x_t on the evaluation region.
double PersistenceMse(const std::vector<double>& series, size_t train_size,
                      size_t horizon) {
  std::vector<double> pred, actual;
  for (size_t t = train_size; t < series.size(); ++t) {
    if (t < horizon) continue;
    pred.push_back(series[t - horizon]);
    actual.push_back(series[t]);
  }
  return *ts::MSE(pred, actual);
}

ForecasterOptions FastOpts(size_t horizon = 3) {
  ForecasterOptions o;
  o.window = 24;
  o.horizon = horizon;
  o.epochs = 25;
  o.batch_size = 32;
  return o;
}

template <typename Model>
double TrainedMse(Model& model, const std::vector<double>& series,
                  size_t train_size, const ForecasterOptions& opts) {
  std::vector<double> train(series.begin(),
                            series.begin() + static_cast<ptrdiff_t>(train_size));
  EXPECT_TRUE(model.Fit(train).ok());
  auto eval =
      EvaluateForecaster(model, series, train_size, opts.window, opts.horizon);
  EXPECT_TRUE(eval.ok());
  return *ts::MSE(eval->predicted, eval->actual);
}

TEST(MlpForecasterTest, LearnsSineBeatsPersistence) {
  auto series = SineSeries(1000, 48.0, 0.1, 21);
  ForecasterOptions opts = FastOpts();
  MlpForecaster mlp(opts);
  double mse = TrainedMse(mlp, series, 700, opts);
  double naive = PersistenceMse(series, 700, opts.horizon);
  EXPECT_LT(mse, naive * 0.3) << "mse=" << mse << " naive=" << naive;
}

TEST(MlpForecasterTest, ParameterCountMatchesArchitecture) {
  ForecasterOptions opts = FastOpts();
  MlpForecaster mlp(opts);  // 24->32->16->1
  EXPECT_EQ(mlp.ParameterCount(), 24 * 32 + 32 + 32 * 16 + 16 + 16 + 1);
  EXPECT_GT(mlp.StorageBytes(), 4 * mlp.ParameterCount());
}

// The guard NeuralForecaster::Predict runs for every neural model, and
// WFGAN's DiscriminatorScore shares it.
TEST(NeuralForecasterTest, PredictGuards) {
  ForecasterOptions opts = FastOpts();
  opts.epochs = 1;
  auto series = SineSeries(400, 48.0, 0.1, 22);
  auto wfgan = std::make_unique<WfganForecaster>(opts);
  const WfganForecaster& gan = *wfgan;
  std::vector<std::unique_ptr<Forecaster>> models;
  models.push_back(std::move(wfgan));
  models.push_back(std::make_unique<TcnForecaster>(opts));
  models.push_back(std::make_unique<MlpForecaster>(opts));
  models.push_back(std::make_unique<LstmForecaster>(opts));
  const std::vector<double> window(24, 0.0);
  EXPECT_EQ(gan.DiscriminatorScore(window, 0.0).status().code(),
            StatusCode::kFailedPrecondition);
  for (auto& model : models) {
    SCOPED_TRACE(model->name());
    Status unfitted = model->Predict(window).status();
    EXPECT_EQ(unfitted.code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(unfitted.message().rfind(model->name() + ": ", 0), 0u)
        << unfitted.message();
    ASSERT_TRUE(model->Fit(series).ok());
    for (size_t size : {3u, 25u}) {
      Status wrong = model->Predict(std::vector<double>(size, 0.0)).status();
      EXPECT_EQ(wrong.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(wrong.message().rfind(model->name() + ": ", 0), 0u)
          << wrong.message();
    }
    EXPECT_TRUE(model->Predict(window).ok());
  }
  EXPECT_EQ(gan.DiscriminatorScore(std::vector<double>(3, 0.0), 0.0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(gan.DiscriminatorScore(window, 0.0).ok());
}

TEST(LstmForecasterTest, LearnsSineBeatsPersistence) {
  auto series = SineSeries(1000, 48.0, 0.1, 23);
  ForecasterOptions opts = FastOpts();
  LstmForecaster lstm(opts);
  double mse = TrainedMse(lstm, series, 700, opts);
  double naive = PersistenceMse(series, 700, opts.horizon);
  EXPECT_LT(mse, naive * 0.5) << "mse=" << mse << " naive=" << naive;
}

TEST(LstmForecasterTest, ParameterCountMatchesArchitecture) {
  LstmForecaster lstm(FastOpts());  // LSTM(1 -> 16), dense 16 -> 1
  EXPECT_EQ(lstm.ParameterCount(), 4 * 16 * (1 + 16) + 4 * 16 + 16 + 1);
  EXPECT_GT(lstm.StorageBytes(), 4 * lstm.ParameterCount());
}

TEST(LstmForecasterTest, DeterministicAcrossRuns) {
  auto series = SineSeries(500, 48.0, 0.1, 25);
  ForecasterOptions opts = FastOpts();
  opts.epochs = 3;
  LstmForecaster a(opts), b(opts);
  ASSERT_TRUE(a.Fit(series).ok());
  ASSERT_TRUE(b.Fit(series).ok());
  std::vector<double> window(series.end() - 24, series.end());
  EXPECT_DOUBLE_EQ(*a.Predict(window), *b.Predict(window));
}

TEST(TcnForecasterTest, LearnsSineBeatsPersistence) {
  auto series = SineSeries(1000, 48.0, 0.1, 27);
  ForecasterOptions opts = FastOpts();
  TcnForecaster tcn(opts);
  double mse = TrainedMse(tcn, series, 700, opts);
  double naive = PersistenceMse(series, 700, opts.horizon);
  EXPECT_LT(mse, naive * 0.5) << "mse=" << mse << " naive=" << naive;
}

// The head reads only the last output step, so a TCN's forecast depends on
// the last 1 + (kernel - 1) * 2 * sum(dilations) steps of its window and on
// none before them.
TEST(TcnForecasterTest, ReceptiveFieldCoversPaperWindow) {
  ForecasterOptions opts = FastOpts();
  opts.window = 30;  // the paper's window
  opts.epochs = 1;
  TcnForecaster tcn(opts);  // dilations 1..16, kernel 2: 63 steps
  auto series = SineSeries(400, 24.0, 0.1, 28);
  ASSERT_TRUE(tcn.Fit(series).ok());
  std::vector<double> w(series.end() - 30, series.end());
  auto base = tcn.Predict(w);
  w[0] += 5.0;  // the oldest step of the window
  auto moved = tcn.Predict(w);
  ASSERT_TRUE(base.ok() && moved.ok());
  EXPECT_NE(*base, *moved);
}

TEST(TcnForecasterTest, ParameterCountMatchesArchitecture) {
  TcnForecaster tcn(FastOpts());  // 16 channels, kernel 2, 5 blocks
  // A causal conv in -> out with kernel k holds out * in * k + out scalars.
  const int64_t first = (16 * 1 * 2 + 16) + (16 * 16 * 2 + 16) +
                        (16 * 1 * 1 + 16);  // conv1, conv2, 1x1 downsample
  const int64_t later = 2 * (16 * 16 * 2 + 16);
  EXPECT_EQ(tcn.ParameterCount(), first + 4 * later + 16 + 1);
  EXPECT_GT(tcn.StorageBytes(), 4 * tcn.ParameterCount());
}

TEST(TcnForecasterTest, CustomDilations) {
  ForecasterOptions opts = FastOpts();
  TcnOptions topts;
  topts.dilations = {1, 2};
  topts.channels = 4;
  TcnForecaster tcn(opts, topts);
  auto series = SineSeries(400, 24.0, 0.1, 29);
  ASSERT_TRUE(tcn.Fit(series).ok());
  // Receptive field 1 + 2 * (1 + 2) = 7 of the 24-step window.
  std::vector<double> w(series.end() - 24, series.end());
  auto base = tcn.Predict(w);
  ASSERT_TRUE(base.ok());
  std::vector<double> older = w;
  for (size_t i = 0; i + 7 < older.size(); ++i) older[i] += 5.0;
  auto same = tcn.Predict(older);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(*same, *base);
  std::vector<double> inside = w;
  inside[24 - 7] += 5.0;
  auto moved = tcn.Predict(inside);
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(*moved, *base);
}

TEST(WfganTest, LearnsSineBeatsPersistence) {
  auto series = SineSeries(1000, 48.0, 0.1, 31);
  ForecasterOptions opts = FastOpts();
  WfganForecaster gan(opts);
  double mse = TrainedMse(gan, series, 700, opts);
  double naive = PersistenceMse(series, 700, opts.horizon);
  EXPECT_LT(mse, naive * 0.5) << "mse=" << mse << " naive=" << naive;
}

TEST(WfganTest, ParameterCountMatchesArchitecture) {
  // Generator and discriminator alike: LSTM(1 -> 30), attention 30 -> 16,
  // dense 30 -> 1. Without attention neither network holds its attention
  // parameters.
  const int64_t lstm = 4 * 30 * (1 + 30) + 4 * 30;
  const int64_t attention = 30 * 16 + 16 + 16;
  const int64_t head = 30 + 1;
  WfganForecaster gan(FastOpts());
  EXPECT_EQ(gan.ParameterCount(), 2 * (lstm + attention + head));
  EXPECT_GT(gan.StorageBytes(), 4 * gan.ParameterCount());
  WfganOptions gopts;
  gopts.use_attention = false;
  WfganForecaster plain(FastOpts(), gopts);
  EXPECT_EQ(plain.ParameterCount(), 2 * (lstm + head));
  EXPECT_LT(plain.StorageBytes(), gan.StorageBytes());
}

TEST(WfganTest, DiscriminatorSeparatesRealFromGeneratorEarly) {
  // D's real-vs-fake margin is only guaranteed while G is still inaccurate
  // (at the min-max equilibrium both distributions coincide and D -> 1/2), so
  // train briefly with a pure adversarial objective and compare the MEAN
  // scores of true continuations vs generator continuations over many
  // windows.
  auto series = SineSeries(800, 48.0, 0.1, 33);
  ForecasterOptions opts = FastOpts(1);
  opts.epochs = 5;
  WfganOptions gopts;
  gopts.supervised_weight = 0.0;  // keep G inaccurate
  gopts.adversarial_weight = 1.0;
  WfganForecaster gan(opts, gopts);
  std::vector<double> train(series.begin(), series.begin() + 600);
  ASSERT_TRUE(gan.Fit(train).ok());
  double real_sum = 0.0, fake_sum = 0.0;
  int count = 0;
  for (size_t t = 624; t < series.size(); t += 4) {
    std::vector<double> window(series.begin() + static_cast<ptrdiff_t>(t - 24),
                               series.begin() + static_cast<ptrdiff_t>(t));
    auto gen = gan.Predict(window);
    ASSERT_TRUE(gen.ok());
    auto real_score = gan.DiscriminatorScore(window, series[t]);
    auto fake_score = gan.DiscriminatorScore(window, *gen);
    ASSERT_TRUE(real_score.ok());
    ASSERT_TRUE(fake_score.ok());
    real_sum += *real_score;
    fake_sum += *fake_score;
    ++count;
  }
  EXPECT_GT(real_sum / count, fake_sum / count);
}

TEST(WfganTest, EpochMovesEveryParameterToFiniteValues) {
  // One epoch of Algorithm 2 steps both networks: every tensor of the
  // generator and the discriminator moves, and none leaves the finite range.
  auto series = SineSeries(400, 24.0, 0.1, 35);
  WfganForecaster gan(FastOpts(1));
  EXPECT_EQ(gan.TrainEpoch().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(gan.PrepareTraining(series).ok());
  std::vector<nn::Matrix> before;
  for (const nn::Param& p : gan.Params()) before.push_back(*p.value);
  ASSERT_TRUE(gan.TrainEpoch().ok());
  const std::vector<nn::Param> params = gan.Params();
  ASSERT_EQ(params.size(), before.size());
  for (size_t k = 0; k < params.size(); ++k) {
    SCOPED_TRACE(testing::Message() << "param " << k << " " << params[k].name);
    const nn::Matrix& now = *params[k].value;
    bool moved = false;
    for (size_t i = 0; i < now.size(); ++i) {
      ASSERT_TRUE(std::isfinite(now.data()[i])) << i;
      moved = moved || now.data()[i] != before[k].data()[i];
    }
    EXPECT_TRUE(moved);
  }
}

TEST(WfganTest, NonAdversarialAblationStillLearns) {
  auto series = SineSeries(800, 48.0, 0.1, 37);
  ForecasterOptions opts = FastOpts();
  WfganOptions gopts;
  gopts.adversarial = false;
  WfganForecaster gan(opts, gopts);
  double mse = TrainedMse(gan, series, 600, opts);
  double naive = PersistenceMse(series, 600, opts.horizon);
  EXPECT_LT(mse, naive);
}

TEST(WfganTest, NoAttentionAblationStillLearns) {
  auto series = SineSeries(800, 48.0, 0.1, 39);
  ForecasterOptions opts = FastOpts();
  WfganOptions gopts;
  gopts.use_attention = false;
  WfganForecaster gan(opts, gopts);
  double mse = TrainedMse(gan, series, 600, opts);
  double naive = PersistenceMse(series, 600, opts.horizon);
  EXPECT_LT(mse, naive);
}

TEST(MultiTaskWfganTest, JointTrainingLearnsBothTasks) {
  auto query = SineSeries(700, 48.0, 0.1, 41);
  // Resource trace correlated with the query trace (shifted/scaled).
  std::vector<double> resource(query.size());
  Rng rng(43);
  for (size_t i = 0; i < query.size(); ++i) {
    resource[i] = 0.3 + 0.04 * query[i] + rng.Gaussian(0.0, 0.01);
  }
  ForecasterOptions opts = FastOpts(1);
  opts.epochs = 20;
  std::vector<double> qtrain(query.begin(), query.begin() + 500);
  std::vector<double> rtrain(resource.begin(), resource.begin() + 500);
  // The full model and the two ablations, one per branch of the shared
  // tower and steps.
  WfganOptions no_attention, no_adversarial;
  no_attention.use_attention = false;
  no_adversarial.adversarial = false;
  for (const WfganOptions& gopts :
       {WfganOptions{}, no_attention, no_adversarial}) {
    SCOPED_TRACE(testing::Message() << "attention " << gopts.use_attention
                                    << " adversarial " << gopts.adversarial);
    MultiTaskWfgan mtl(opts, gopts);
    ASSERT_TRUE(mtl.Fit(qtrain, rtrain).ok());

    // Evaluate both tasks on the held-out tail.
    std::vector<double> qpred, qact, rpred, ract;
    for (size_t t = 500; t < query.size(); ++t) {
      std::vector<double> qw(query.begin() + static_cast<ptrdiff_t>(t - 24),
                             query.begin() + static_cast<ptrdiff_t>(t));
      std::vector<double> rw(resource.begin() + static_cast<ptrdiff_t>(t - 24),
                             resource.begin() + static_cast<ptrdiff_t>(t));
      auto qp = mtl.Predict(WorkloadTask::kQuery, qw);
      auto rp = mtl.Predict(WorkloadTask::kResource, rw);
      ASSERT_TRUE(qp.ok());
      ASSERT_TRUE(rp.ok());
      qpred.push_back(*qp);
      qact.push_back(query[t]);
      rpred.push_back(*rp);
      ract.push_back(resource[t]);
    }
    double qmse = *ts::MSE(qpred, qact);
    double rmse = *ts::MSE(rpred, ract);
    double qnaive = PersistenceMse(query, 500, 1);
    double rnaive = PersistenceMse(resource, 500, 1);
    EXPECT_LT(qmse, qnaive) << qmse << " vs " << qnaive;
    EXPECT_LT(rmse, rnaive) << rmse << " vs " << rnaive;
  }
}

TEST(MultiTaskWfganTest, SharedTrunkIsCounted) {
  ForecasterOptions opts = FastOpts(1);
  MultiTaskWfgan mtl(opts, WfganOptions{});
  // Shared LSTM: 4*h*(in+h+1) with in=1, h=30.
  EXPECT_EQ(mtl.SharedParameterCount(), 4 * 30 * (1 + 30) + 4 * 30);
  EXPECT_GT(mtl.ParameterCount(), 2 * mtl.SharedParameterCount());
}

TEST(MultiTaskWfganTest, PredictBeforeFitFails) {
  ForecasterOptions opts = FastOpts(1);
  MultiTaskWfgan mtl(opts, WfganOptions{});
  EXPECT_EQ(mtl.Predict(WorkloadTask::kQuery, std::vector<double>(24, 0.0))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(MultiTaskWfganTest, FailedRefitLeavesPredictFailing) {
  // A refit replaces the scalers before it trains. When it fails, Predict
  // must not answer with the new scalers over the old weights.
  ForecasterOptions opts;
  opts.window = 8;
  opts.batch_size = 16;
  opts.epochs = 1;
  MultiTaskWfgan mtl(opts, WfganOptions{});
  auto query = SineSeries(200, 24.0, 0.1, 45);
  ASSERT_TRUE(mtl.Fit(query, query).ok());
  const std::vector<double> window(query.begin(), query.begin() + 8);
  ASSERT_TRUE(mtl.Predict(WorkloadTask::kQuery, window).ok());

  std::vector<double> scaled = query;
  for (double& v : scaled) v *= 100.0;
  // 20 points give 12 windows: fewer than one batch.
  const std::vector<double> short_resource(query.begin(), query.begin() + 20);
  EXPECT_EQ(mtl.Fit(scaled, short_resource).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(mtl.Predict(WorkloadTask::kQuery, window).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dbaugur::models
