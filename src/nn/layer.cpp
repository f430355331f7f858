#include "nn/layer.h"

#include <cmath>

namespace dbaugur::nn {

void ClipGradNorm(std::vector<Param>& params, double max_norm) {
  double total = 0.0;
  for (Param& p : params) total += p.grad->SquaredNorm();
  double norm = std::sqrt(total);
  if (norm <= max_norm || norm == 0.0) return;
  double scale = max_norm / norm;
  for (Param& p : params) p.grad->Scale(scale);
}

}  // namespace dbaugur::nn
