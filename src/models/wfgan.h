// WFGAN: Workload Forecasting GAN (the paper's core contribution, §V-A/V-B).
//
// A conditional GAN where the generator receives the length-T condition
// window X and emits the forecast x̂_{T+H}; the discriminator scores the
// length-(T+1) concatenations X ∘ x_{T+H} (real) and X ∘ x̂_{T+H} (fake).
// Both networks are an LSTM (paper: 30 cells) followed by a temporal
// attention layer (paper Eq. 2-3) and a dense head. Training alternates
// one D-step and g_steps G-steps per minibatch, per the paper's Algorithm 2.
//
// Two deliberate implementation choices beyond the paper's text, both
// standard for forecasting GANs and both exposed for ablation:
//  * the generator objective adds a supervised MSE term
//    (supervised_weight); pure adversarial training of a point forecaster
//    is unstable at this scale,
//  * the generator's adversarial term defaults to the non-saturating loss
//    -log D(fake) instead of Eq. 5's log(1 - D(fake)) (Goodfellow et al.'s
//    own recommendation); `saturating_g_loss` restores Eq. 5.

#pragma once

#include <memory>

#include "models/neural_common.h"
#include "nn/attention.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"

namespace dbaugur::models {

/// Attention projection width of every WFGAN attention layer.
inline constexpr size_t kAttnDim = 16;
/// Label smoothing for real samples in the discriminator loss.
inline constexpr double kRealLabel = 0.9;

/// WFGAN architecture / training knobs.
struct WfganOptions {
  size_t hidden = 30;       ///< LSTM cells (paper: one LSTM layer, 30 cells).
  size_t g_steps = 1;       ///< Generator updates per minibatch.
  double adversarial_weight = 0.2;  ///< Weight of the GAN term in G's loss.
  double supervised_weight = 1.0;   ///< Weight of the MSE term in G's loss.
  bool use_attention = true;        ///< Disable to ablate Eq. 2-3.
  bool adversarial = true;          ///< Disable to ablate GAN training.
  bool saturating_g_loss = false;   ///< Use the paper's Eq. 5 G loss.
};

/// Per-epoch training diagnostics.
struct WfganEpochStats {
  double d_loss = 0.0;   ///< Mean discriminator BCE.
  double g_adv = 0.0;    ///< Mean generator adversarial loss.
  double g_mse = 0.0;    ///< Mean generator supervised MSE (scaled space).
};

class WfganForecaster : public NeuralForecaster {
 public:
  WfganForecaster(const ForecasterOptions& opts, const WfganOptions& gan);
  explicit WfganForecaster(const ForecasterOptions& opts)
      : WfganForecaster(opts, WfganOptions{}) {}

  std::string name() const override { return "WFGAN"; }

  /// One epoch over the PrepareTraining dataset (Algorithm 2).
  StatusOr<WfganEpochStats> TrainEpoch();

  /// Discriminator probability that `window ∘ value` is a real trace
  /// (inputs in raw scale). Exposed for tests and examples.
  StatusOr<double> DiscriminatorScore(const std::vector<double>& window,
                                      double value) const;

  /// The generator, then the discriminator (attention only when used).
  std::vector<nn::Param> Params() const override;

 private:
  /// The generator's forecasts (time-major through GeneratorForward).
  const nn::Matrix& ForwardBatch(const nn::Matrix& x) const override;
  /// Generator forward on a time-major batch; returns [batch, 1] forecasts
  /// in scaled space (network-owned workspace, valid until the next call).
  const nn::Matrix& GeneratorForward(const std::vector<nn::Matrix>& xs) const;
  /// Generator backward from dLoss/dForecast.
  void GeneratorBackward(const nn::Matrix& grad_pred, size_t steps,
                         size_t batch) const;
  /// Discriminator forward on a time-major batch of length T+1. With
  /// first_step > 0 the steps before it are reused from the previous call,
  /// under the contract of nn::LSTM::ForwardSequence (same weights, equal
  /// inputs there).
  const nn::Matrix& DiscriminatorForward(const std::vector<nn::Matrix>& xs,
                                         size_t first_step = 0) const;
  /// Discriminator backward: accumulates D's parameter gradients.
  void DiscriminatorBackward(const nn::Matrix& grad_logit, size_t steps,
                             size_t batch) const;
  /// dLoss/dInput of the last step alone (what the G-step reads), without
  /// any parameter gradient; network-owned workspace, valid until the next
  /// discriminator call.
  const nn::Matrix& DiscriminatorLastInputGrad(
      const nn::Matrix& grad_logit) const;
  std::vector<nn::Param> GeneratorParams() const;
  std::vector<nn::Param> DiscriminatorParams() const;
  Status RunEpoch() override { return TrainEpoch().status(); }
  void ReleaseWorkspaces() override;

  WfganOptions gan_;
  // Generator.
  mutable nn::LSTM g_lstm_;
  mutable nn::TemporalAttention g_attn_;
  mutable nn::Dense g_head_;
  // Discriminator.
  mutable nn::LSTM d_lstm_;
  mutable nn::TemporalAttention d_attn_;
  mutable nn::Dense d_head_;
  nn::Adam g_adam_, d_adam_;
  // Batch workspaces reused across batches (mutable: used from const paths).
  mutable nn::Matrix xb_, y_, grad_pred_, mse_grad_, grad_real_, grad_fake_,
      grad_logit_, real_labels_, fake_labels_;
  mutable std::vector<nn::Matrix> xs_, xs_real_, xs_fake_;
  mutable std::vector<nn::Matrix> g_grad_hs_, d_grad_hs_;  // no-attention path
};

}  // namespace dbaugur::models
