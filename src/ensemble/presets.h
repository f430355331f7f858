// Preset ensembles from the paper's evaluation:
//   * DBAugur  — dynamic time-sensitive fusion of WFGAN + TCN + MLP (δ=0.9)
//   * QB5000   — equal average of LR + LSTM + KR (Ma et al., SIGMOD'18)

#pragma once

#include <memory>

#include "ensemble/time_sensitive_ensemble.h"
#include "models/forecaster.h"

namespace dbaugur::ensemble {

/// DBAugur's forecaster: dynamic ensemble of WFGAN, TCN, and MLP.
StatusOr<std::unique_ptr<TimeSensitiveEnsemble>> MakeDBAugur(
    const models::ForecasterOptions& opts, double delta = 0.9);

/// The QB5000 baseline: fixed equal average of LR, LSTM, and KR.
StatusOr<std::unique_ptr<TimeSensitiveEnsemble>> MakeQB5000(
    const models::ForecasterOptions& opts);

/// Single-member kernel-regression "ensemble": the serving layer's degraded-
/// mode baseline. KR predictions are kernel-weighted averages of observed
/// targets, so they are bounded by the training data by construction — the
/// property a fallback for a diverged adversarial fit needs.
StatusOr<std::unique_ptr<TimeSensitiveEnsemble>> MakeKernelBaseline(
    const models::ForecasterOptions& opts);

}  // namespace dbaugur::ensemble
