// WFGAN: Workload Forecasting GAN (the paper's core contribution, §V-A/V-B).
//
// A conditional GAN where the generator receives the length-T condition
// window X and emits the forecast x̂_{T+H}; the discriminator scores the
// length-(T+1) concatenations X ∘ x_{T+H} (real) and X ∘ x̂_{T+H} (fake).
// Both networks are a WfganTower: an LSTM (paper: 30 cells) followed by a
// temporal attention layer (paper Eq. 2-3) and a dense head. Training
// alternates one D-step and one G-step per minibatch, per the paper's
// Algorithm 2; WfganSteps writes both steps once for this model and the
// multi-task one (models/wfgan_multitask.h).
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
  double adversarial_weight = 0.2;  ///< Weight of the GAN term in G's loss.
  double supervised_weight = 1.0;   ///< Weight of the MSE term in G's loss.
  bool use_attention = true;        ///< Disable to ablate Eq. 2-3.
  bool adversarial = true;          ///< Disable to ablate GAN training.
  bool saturating_g_loss = false;   ///< Use the paper's Eq. 5 G loss.
};

/// One WFGAN network: an LSTM over a time-major sequence of [batch, 1]
/// inputs, a temporal attention layer over its states (skipped unless
/// use_attention) and a dense head giving one [batch, 1] output. Every
/// generator and discriminator of both WFGAN models is one. A tower may run
/// over an LSTM it does not own: the multi-task generators share one trunk.
class WfganTower {
 public:
  /// Draws the weights of its own LSTM (none when `shared` is given), then
  /// the attention layer's (drawn even when unused), then the head's.
  WfganTower(size_t hidden, bool use_attention, Rng* rng,
             nn::LSTM* shared = nullptr);

  /// Outputs for the batch xs (tower-owned workspace, valid until the next
  /// forward). With first_step > 0 the steps before it are reused from the
  /// previous call, under the contract of nn::LSTM::ForwardSequence (same
  /// weights, equal inputs there).
  const nn::Matrix& Forward(const std::vector<nn::Matrix>& xs,
                            size_t first_step = 0);
  /// Backward from dLoss/dOutput through the last forward: accumulates the
  /// parameter gradients of every layer, a shared LSTM's too.
  void Backward(const nn::Matrix& grad_out);
  /// dLoss/dInput of the last step alone, without any parameter gradient
  /// (layer-owned workspace, valid until the next backward call).
  const nn::Matrix& LastStepInputGrad(const nn::Matrix& grad_out);
  /// Its own LSTM's parameters, the attention's when used, then the head's.
  std::vector<nn::Param> Params();
  /// Frees the workspaces of every layer it owns.
  void ReleaseWorkspaces();

 private:
  bool use_attention_;
  std::unique_ptr<nn::LSTM> own_lstm_;  // null over a shared LSTM
  nn::LSTM* lstm_;
  nn::TemporalAttention attn_;
  nn::Dense head_;
  size_t steps_ = 0;                  // of the last forward
  std::vector<nn::Matrix> grad_hs_;   // no-attention backward
};

/// Algorithm 2's two minibatch steps, written once for both WFGAN models,
/// with the batch buffers they reuse. xs is the time-major condition
/// batch, y the targets and fake the generator's forecasts for xs.
class WfganSteps {
 public:
  explicit WfganSteps(const WfganOptions& gan) : gan_(gan) {}

  /// D-step (Algorithm 2, lines 5-7) with detached fakes: BCE of d on the
  /// real batch xs ∘ y (labels kRealLabel) and the fake batch xs ∘ fake
  /// (labels 0), then one Adam step on d's clipped gradients. `dparams` is
  /// d's Params().
  void DiscriminatorStep(WfganTower* d, std::vector<nn::Param>& dparams,
                         nn::Adam* adam, const std::vector<nn::Matrix>& xs,
                         const nn::Matrix& y, const nn::Matrix& fake);
  /// The generator's dLoss/dForecast (Algorithm 2, lines 8-10):
  /// supervised_weight times the MSE gradient, plus, when adversarial,
  /// adversarial_weight times d's last-step input gradient of the generator
  /// loss on xs ∘ fake. Forms no parameter gradient of d. Valid until the
  /// next call.
  const nn::Matrix& GeneratorLossGrad(WfganTower* d,
                                      const std::vector<nn::Matrix>& xs,
                                      const nn::Matrix& y,
                                      const nn::Matrix& fake);
  void ReleaseWorkspaces();

 private:
  WfganOptions gan_;
  nn::Matrix labels_, grad_logit_, mse_grad_, grad_pred_;
  std::vector<nn::Matrix> xs_real_, xs_fake_;
};

class WfganForecaster : public NeuralForecaster {
 public:
  WfganForecaster(const ForecasterOptions& opts, const WfganOptions& gan);
  explicit WfganForecaster(const ForecasterOptions& opts)
      : WfganForecaster(opts, WfganOptions{}) {}

  std::string name() const override { return "WFGAN"; }

  /// Discriminator probability that `window ∘ value` is a real trace
  /// (inputs in raw scale). Exposed for tests and examples.
  StatusOr<double> DiscriminatorScore(const std::vector<double>& window,
                                      double value) const;

  /// The generator, then the discriminator (attention only when used).
  std::vector<nn::Param> Params() const override;

 private:
  /// The generator's forecasts; leaves the time-major batch in xs_.
  const nn::Matrix& ForwardBatch(const nn::Matrix& x) const override;
  void Backward(const nn::Matrix& grad_pred) override;
  /// The generator's list, then the discriminator's.
  TrainedParams GatherTrainedParams() const override;
  /// A D-step, then the G-step through the same generator pass (nothing
  /// changes the generator in between).
  void TrainBatch(TrainedParams& params) override;
  void ReleaseWorkspaces() override;

  WfganOptions gan_;
  mutable WfganTower g_, d_;  // generator, discriminator
  nn::Adam d_adam_;
  WfganSteps steps_;
  mutable std::vector<nn::Matrix> xs_;  // time-major batch
};

}  // namespace dbaugur::models
