#include "nn/optimizer.h"

#include <cmath>

namespace dbaugur::nn {

void Adam::Step(std::vector<Param>& params) {
  bool needs_init = m_.size() != params.size();
  if (!needs_init) {
    for (size_t k = 0; k < params.size(); ++k) {
      if (!m_[k].SameShape(*params[k].value)) {
        needs_init = true;
        break;
      }
    }
  }
  if (needs_init) {
    m_.clear();
    v_.clear();
    for (Param& p : params) {
      m_.emplace_back(p.value->rows(), p.value->cols(), 0.0);
      v_.emplace_back(p.value->rows(), p.value->cols(), 0.0);
    }
    t_ = 0;
  }
  ++t_;
  double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (size_t k = 0; k < params.size(); ++k) {
    Matrix& value = *params[k].value;
    const Matrix& grad = *params[k].grad;
    Matrix& m = m_[k];
    Matrix& v = v_[k];
    for (size_t i = 0; i < value.size(); ++i) {
      double g = grad.data()[i];
      double mi = kBeta1 * m.data()[i] + (1.0 - kBeta1) * g;
      double vi = kBeta2 * v.data()[i] + (1.0 - kBeta2) * g * g;
      m.data()[i] = mi;
      v.data()[i] = vi;
      double mhat = mi / bc1;
      double vhat = vi / bc2;
      value.data()[i] =
          value.data()[i] - lr_ * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

}  // namespace dbaugur::nn
