// Time-sensitive ensemble (paper §V-C, Eq. 7-8).
//
// Each member model i keeps a forecasting distance
//   Γ(e(i), t) = Σ_{j<=t} δ^{t-j} e_j(i)      (recurrence Γ_t = δΓ_{t-1} + e_t)
// over its squared one-shot errors. At prediction time the members are fused
// with normalized inverted distances
//   w_t(i) = (Σ_j Γ(e(j),t) − Γ(e(i),t)) / ((n−1) · Σ_j Γ(e(j),t)),
// which reduces to the paper's Eq. 8 for n = 3. With `dynamic = false` the
// ensemble uses fixed equal weights (the Fig. 7 baseline); the same class
// with members {LR, LSTM, KR} and fixed weights is QB5000.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "models/forecaster.h"

namespace dbaugur::ensemble {

/// Ensemble configuration.
struct EnsembleOptions {
  double delta = 0.9;    ///< Attenuation factor δ (paper uses 0.9).
  bool dynamic = true;   ///< false => fixed equal weights.
};

/// Fuses member forecasters with time-sensitive weights. Implements the
/// Forecaster interface so it can be evaluated exactly like a single model;
/// weights evolve as Observe() feeds back realized values.
class TimeSensitiveEnsemble : public models::Forecaster {
 public:
  explicit TimeSensitiveEnsemble(const EnsembleOptions& ens) : ens_(ens) {}

  /// Adds a member model (before Fit).
  void AddMember(std::unique_ptr<models::Forecaster> member);
  size_t member_count() const { return members_.size(); }
  const models::Forecaster& member(size_t i) const { return *members_[i]; }

  /// Fits every member on the training series and resets the error state:
  /// each member's Fit in order, then FinishFit. The ensemble counts as
  /// unfitted from the first member fit on, so a refit that fails partway
  /// leaves Predict failing with FailedPrecondition rather than serving a mix
  /// of two fits.
  Status Fit(const std::vector<double>& series) override;

  /// Runs fit step `step` of member `i` alone (i < member_count(); the
  /// member's models::Forecaster::FitStep, member(i).FitSteps() steps in
  /// order). Members share no mutable state, so distinct members of one
  /// ensemble may step concurrently, and a scheduler may interleave their
  /// steps with other models'. The ensemble must not be fitted yet (fresh,
  /// or its last Fit failed); FailedPrecondition otherwise.
  Status FitMemberStep(size_t i, size_t step,
                       const std::vector<double>& series);

  /// Frees member `i`'s fit workspaces between two of its steps
  /// (models::Forecaster::SuspendFit).
  void SuspendMemberFit(size_t i);

  /// Completes a member-wise fit once every member's last FitMemberStep
  /// returned OK: resets Γ and the prediction cache and marks the ensemble
  /// fitted. FailedPrecondition when the ensemble has no members.
  Status FinishFit();

  /// Weighted fusion of member predictions using the current weights.
  StatusOr<double> Predict(const std::vector<double>& window) const override;

  /// Feeds back the realized value for the given condition window, updating
  /// each member's forecasting distance Γ. Call in time order: the realized
  /// value for a window becomes known H steps after the prediction, so the
  /// natural driver is Predict(w_t), ..., Observe(w_t, x_{t+H}).
  Status Observe(const std::vector<double>& window, double actual);

  /// Current ensemble weights (sums to 1; equal until errors accumulate).
  std::vector<double> CurrentWeights() const;
  /// Current forecasting distances Γ per member.
  const std::vector<double>& Distances() const { return gamma_; }

  std::string name() const override {
    return ens_.dynamic ? "DBAugurEnsemble" : "FixedEnsemble";
  }
  int64_t StorageBytes() const override;
  int64_t ParameterCount() const override;

  /// Serializes every member's state plus the forecasting-distance histories
  /// Γ, so a same-preset ensemble restores to identical weights and member
  /// forecasts without retraining. Fails with Unimplemented if any member
  /// cannot serialize (classical models).
  StatusOr<std::vector<uint8_t>> SaveState() const override;
  /// Restores a SaveState blob into an ensemble with the same member names
  /// in the same order; corrupt or mismatched blobs are rejected. A rejected
  /// blob leaves the ensemble as it was, except when a member rejects its
  /// state after an earlier member was restored: then the ensemble counts as
  /// unfitted and Predict fails with FailedPrecondition.
  Status LoadState(const std::vector<uint8_t>& buffer) override;

 private:
  StatusOr<std::vector<double>> MemberPredictions(
      const std::vector<double>& window) const;
  /// Aborts on δ outside (0,1).
  void CheckDelta() const;

  EnsembleOptions ens_;
  std::vector<std::unique_ptr<models::Forecaster>> members_;
  std::vector<double> gamma_;
  // Cache of the last window's member predictions so Observe doesn't
  // recompute them.
  mutable std::vector<double> cached_window_;
  mutable std::vector<double> cached_preds_;
  bool fitted_ = false;
};

/// Rolling online evaluation for ensembles: walks the tail of `series`
/// (targets >= train_size) in time order, predicting each target and then
/// observing the realized value so the weights adapt as in deployment.
StatusOr<models::EvalResult> EvaluateOnline(TimeSensitiveEnsemble& model,
                                            const std::vector<double>& series,
                                            size_t train_size, size_t window,
                                            size_t horizon);

}  // namespace dbaugur::ensemble
