#include "ensemble/time_sensitive_ensemble.h"

#include <cmath>

#include "common/binio.h"
#include "common/contracts.h"

namespace dbaugur::ensemble {

void TimeSensitiveEnsemble::AddMember(
    std::unique_ptr<models::Forecaster> member) {
  members_.push_back(std::move(member));
}

void TimeSensitiveEnsemble::CheckDelta() const {
  // δ outside (0,1) makes the forecasting-distance recurrence Γ_t = δΓ_{t-1} +
  // e_t diverge or ignore history entirely — a configuration bug, not a data
  // condition, so it is a contract rather than a Status.
  DBAUGUR_CHECK(ens_.delta > 0.0 && ens_.delta < 1.0,
                "ensemble attenuation delta must be in (0,1), got ",
                ens_.delta);
}

Status TimeSensitiveEnsemble::Fit(const std::vector<double>& series) {
  CheckDelta();
  // The first member fit changes what the cache and the fitted flag vouch
  // for; a later member's failure must not leave them serving.
  cached_window_.clear();
  cached_preds_.clear();
  fitted_ = false;
  for (const auto& m : members_) DBAUGUR_RETURN_IF_ERROR(m->Fit(series));
  return FinishFit();
}

Status TimeSensitiveEnsemble::FitMemberStep(size_t i, size_t step,
                                            const std::vector<double>& series) {
  CheckDelta();
  DBAUGUR_CHECK_LT(i, members_.size(), "ensemble member index");
  if (fitted_) {
    return Status::FailedPrecondition(
        "ensemble: FitMemberStep on a fitted ensemble (refit with Fit)");
  }
  return members_[i]->FitStep(step, series);
}

void TimeSensitiveEnsemble::SuspendMemberFit(size_t i) {
  DBAUGUR_CHECK_LT(i, members_.size(), "ensemble member index");
  members_[i]->SuspendFit();
}

Status TimeSensitiveEnsemble::FinishFit() {
  CheckDelta();
  if (members_.empty()) {
    return Status::FailedPrecondition("ensemble: no members added");
  }
  gamma_.assign(members_.size(), 0.0);
  cached_window_.clear();
  cached_preds_.clear();
  fitted_ = true;
  return Status::OK();
}

StatusOr<std::vector<double>> TimeSensitiveEnsemble::MemberPredictions(
    const std::vector<double>& window) const {
  if (cached_window_ == window && cached_preds_.size() == members_.size()) {
    return cached_preds_;
  }
  std::vector<double> preds;
  preds.reserve(members_.size());
  for (const auto& m : members_) {
    auto p = m->Predict(window);
    if (!p.ok()) return p.status();
    preds.push_back(*p);
  }
  cached_window_ = window;
  cached_preds_ = preds;
  return preds;
}

namespace {
// True iff the weight vector is a normalized distribution (sums to 1 within
// floating-point tolerance). DCHECK-tier: O(n) per prediction.
bool WeightsNormalized(const std::vector<double>& w) {
  double sum = 0.0;
  for (double x : w) sum += x;
  return std::fabs(sum - 1.0) <= 1e-9;
}
}  // namespace

std::vector<double> TimeSensitiveEnsemble::CurrentWeights() const {
  size_t n = members_.size();
  std::vector<double> w(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  if (!ens_.dynamic || n < 2) return w;
  double sum = 0.0;
  for (double g : gamma_) sum += g;
  if (sum <= 1e-300) return w;  // no errors observed yet => equal weights
  for (size_t i = 0; i < n; ++i) {
    w[i] = (sum - gamma_[i]) / (static_cast<double>(n - 1) * sum);
  }
  DBAUGUR_DCHECK(WeightsNormalized(w),
                 "ensemble weights do not sum to 1 (Eq. 8 normalization)");
  return w;
}

StatusOr<double> TimeSensitiveEnsemble::Predict(
    const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("ensemble: Fit not called");
  auto preds = MemberPredictions(window);
  if (!preds.ok()) return preds.status();
  std::vector<double> w = CurrentWeights();
  double out = 0.0;
  for (size_t i = 0; i < preds->size(); ++i) out += w[i] * (*preds)[i];
  return out;
}

Status TimeSensitiveEnsemble::Observe(const std::vector<double>& window,
                                      double actual) {
  if (!fitted_) return Status::FailedPrecondition("ensemble: Fit not called");
  auto preds = MemberPredictions(window);
  if (!preds.ok()) return preds.status();
  for (size_t i = 0; i < members_.size(); ++i) {
    double e = (*preds)[i] - actual;
    gamma_[i] = ens_.delta * gamma_[i] + e * e;
  }
  return Status::OK();
}

namespace {
constexpr uint32_t kEnsembleStateMagic = 0xDBA6E5B1;
}  // namespace

StatusOr<std::vector<uint8_t>> TimeSensitiveEnsemble::SaveState() const {
  if (!fitted_) {
    return Status::FailedPrecondition("ensemble: SaveState before Fit");
  }
  BufWriter w;
  w.U32(kEnsembleStateMagic);
  w.U32(static_cast<uint32_t>(members_.size()));
  for (const auto& m : members_) {
    auto state = m->SaveState();
    if (!state.ok()) return state.status();
    w.Str(m->name());
    w.Bytes(*state);
  }
  for (double g : gamma_) w.F64(g);
  return w.Take();
}

Status TimeSensitiveEnsemble::LoadState(const std::vector<uint8_t>& buffer) {
  BufReader r(buffer);
  uint32_t magic = 0, count = 0;
  if (!r.U32(&magic) || magic != kEnsembleStateMagic) {
    return Status::InvalidArgument("bad magic in ensemble state buffer");
  }
  if (!r.U32(&count) || count != members_.size()) {
    return Status::InvalidArgument("ensemble state member count mismatch");
  }
  // Parse the whole frame before mutating any member, so a truncated tail
  // leaves the ensemble as it was.
  std::vector<std::vector<uint8_t>> states(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    std::string member_name;
    if (!r.Str(&member_name) || !r.Bytes(&states[i])) {
      return Status::InvalidArgument("truncated ensemble state member section");
    }
    if (member_name != members_[i]->name()) {
      return Status::InvalidArgument(
          "ensemble state member mismatch: expected " + members_[i]->name() +
          ", blob has " + member_name);
    }
  }
  std::vector<double> gamma(members_.size(), 0.0);
  for (double& g : gamma) {
    if (!r.F64(&g)) {
      return Status::InvalidArgument("truncated ensemble state gamma section");
    }
  }
  // A member that rejects its state leaves itself unchanged, but the members
  // before it already hold the blob's weights. Such a mix of two fits must
  // not serve: drop the cache and count as unfitted until the next Fit or
  // LoadState succeeds.
  for (size_t i = 0; i < members_.size(); ++i) {
    Status st = members_[i]->LoadState(states[i]);
    if (!st.ok()) {
      if (i > 0) {
        cached_window_.clear();
        cached_preds_.clear();
        fitted_ = false;
      }
      return st;
    }
  }
  gamma_ = std::move(gamma);
  cached_window_.clear();
  cached_preds_.clear();
  fitted_ = true;
  return Status::OK();
}

int64_t TimeSensitiveEnsemble::StorageBytes() const {
  int64_t bytes = static_cast<int64_t>(gamma_.size()) * 8;
  for (const auto& m : members_) bytes += m->StorageBytes();
  return bytes;
}

int64_t TimeSensitiveEnsemble::ParameterCount() const {
  int64_t n = 0;
  for (const auto& m : members_) n += m->ParameterCount();
  return n;
}

StatusOr<models::EvalResult> EvaluateOnline(TimeSensitiveEnsemble& model,
                                            const std::vector<double>& series,
                                            size_t train_size, size_t window,
                                            size_t horizon) {
  if (window == 0 || horizon == 0) {
    return Status::InvalidArgument("window and horizon must be positive");
  }
  if (train_size + horizon >= series.size() || train_size < window) {
    return Status::InvalidArgument("not enough data to evaluate");
  }
  models::EvalResult out;
  for (size_t target = train_size; target < series.size(); ++target) {
    if (target < window - 1 + horizon) continue;
    size_t window_end = target - horizon;
    size_t window_begin = window_end + 1 - window;
    DBAUGUR_DCHECK_LT(window_end, series.size(),
                      "EvaluateOnline window exceeds series");
    DBAUGUR_DCHECK_LE(window_begin, window_end,
                      "EvaluateOnline window inverted");
    std::vector<double> w(
        series.begin() + static_cast<ptrdiff_t>(window_begin),
        series.begin() + static_cast<ptrdiff_t>(window_end + 1));
    auto pred = model.Predict(w);
    if (!pred.ok()) return pred.status();
    out.predicted.push_back(*pred);
    out.actual.push_back(series[target]);
    out.target_index.push_back(target);
    // Realized value becomes available once time reaches `target`; feeding it
    // back immediately after recording the prediction keeps the walk causal.
    DBAUGUR_RETURN_IF_ERROR(model.Observe(w, series[target]));
  }
  if (out.predicted.empty()) {
    return Status::InvalidArgument("no evaluable targets");
  }
  return out;
}

}  // namespace dbaugur::ensemble
