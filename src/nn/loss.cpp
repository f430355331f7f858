#include "nn/loss.h"

#include <cmath>

#include "common/contracts.h"
#include "common/math_utils.h"

namespace dbaugur::nn {

double MSELoss(const Matrix& pred, const Matrix& target, Matrix* grad) {
  DBAUGUR_CHECK(pred.SameShape(target), "MSELoss shape mismatch: ",
                pred.rows(), "x", pred.cols(), " vs ", target.rows(), "x",
                target.cols());
  DBAUGUR_CHECK_GT(pred.size(), 0u, "MSELoss on empty matrices");
  double n = static_cast<double>(pred.size());
  double loss = 0.0;
  if (grad != nullptr) grad->Resize(pred.rows(), pred.cols());
  for (size_t i = 0; i < pred.size(); ++i) {
    double d = pred.data()[i] - target.data()[i];
    loss += d * d;
    if (grad != nullptr) grad->data()[i] = 2.0 * d / n;
  }
  return loss / n;
}

double BCEWithLogitsLoss(const Matrix& logits, const Matrix& target,
                         Matrix* grad) {
  DBAUGUR_CHECK(logits.SameShape(target), "BCEWithLogitsLoss shape mismatch: ",
                logits.rows(), "x", logits.cols(), " vs ", target.rows(), "x",
                target.cols());
  DBAUGUR_CHECK_GT(logits.size(), 0u, "BCEWithLogitsLoss on empty matrices");
  double n = static_cast<double>(logits.size());
  double loss = 0.0;
  if (grad != nullptr) grad->Resize(logits.rows(), logits.cols());
  for (size_t i = 0; i < logits.size(); ++i) {
    double z = logits.data()[i];
    double y = target.data()[i];
    // max(z,0) - z*y + log(1 + exp(-|z|))
    loss += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::fabs(z)));
    if (grad != nullptr) grad->data()[i] = (Sigmoid(z) - y) / n;
  }
  return loss / n;
}

double GeneratorGanLoss(const Matrix& fake_logits, Matrix* grad) {
  // -mean(log sigmoid(z)) ; d/dz = sigmoid(z) - 1.
  DBAUGUR_CHECK_GT(fake_logits.size(), 0u, "GeneratorGanLoss on empty matrix");
  double n = static_cast<double>(fake_logits.size());
  double loss = 0.0;
  if (grad != nullptr) grad->Resize(fake_logits.rows(), fake_logits.cols());
  for (size_t i = 0; i < fake_logits.size(); ++i) {
    double z = fake_logits.data()[i];
    // -log sigmoid(z) = log(1 + exp(-z)) computed stably.
    loss += std::max(-z, 0.0) + std::log1p(std::exp(-std::fabs(z)));
    if (grad != nullptr) grad->data()[i] = (Sigmoid(z) - 1.0) / n;
  }
  return loss / n;
}

double GeneratorGanLossSaturating(const Matrix& fake_logits, Matrix* grad) {
  // mean(log(1 - sigmoid(z))) = mean(-z - log(1+exp(-z)))... use stable form:
  // log(1 - sigmoid(z)) = -max(z,0) - log(1 + exp(-|z|)).
  // d/dz log(1 - sigmoid(z)) = -sigmoid(z).
  DBAUGUR_CHECK_GT(fake_logits.size(), 0u,
                   "GeneratorGanLossSaturating on empty matrix");
  double n = static_cast<double>(fake_logits.size());
  double loss = 0.0;
  if (grad != nullptr) grad->Resize(fake_logits.rows(), fake_logits.cols());
  for (size_t i = 0; i < fake_logits.size(); ++i) {
    double z = fake_logits.data()[i];
    loss += -std::max(z, 0.0) - std::log1p(std::exp(-std::fabs(z)));
    if (grad != nullptr) grad->data()[i] = -Sigmoid(z) / n;
  }
  return loss / n;
}

}  // namespace dbaugur::nn
