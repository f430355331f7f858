// Loss functions: MSE for regression heads, logit-space binary cross-entropy
// for the WFGAN discriminator.

#pragma once

#include "nn/matrix.h"

namespace dbaugur::nn {

/// Mean squared error over all elements. `grad` (same shape as pred) receives
/// dLoss/dPred; pass nullptr to skip the gradient.
double MSELoss(const Matrix& pred, const Matrix& target, Matrix* grad);

/// Numerically stable sigmoid binary cross-entropy taking *logits*.
/// target entries must be 0 or 1. `grad` receives dLoss/dLogit.
double BCEWithLogitsLoss(const Matrix& logits, const Matrix& target,
                         Matrix* grad);

/// Generator-side GAN loss: the *non-saturating* variant
/// -mean(log sigmoid(logit_fake)), which gives the generator strong gradients
/// early in training; `grad` receives dLoss/dLogit_fake.
double GeneratorGanLoss(const Matrix& fake_logits, Matrix* grad);

/// The paper's original saturating generator loss mean(log(1 - D(fake)))
/// (Eq. 5), exposed for the ablation bench. `grad` receives dLoss/dLogit.
double GeneratorGanLossSaturating(const Matrix& fake_logits, Matrix* grad);

}  // namespace dbaugur::nn
