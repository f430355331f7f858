#include "models/kernel_regression.h"

#include <algorithm>
#include <cmath>

#include "common/binio.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "ts/window_dataset.h"

namespace dbaugur::models {

namespace {
double SquaredDistance(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}
}  // namespace

Status KernelRegressionForecaster::Fit(const std::vector<double>& series) {
  ts::WindowDatasetOptions wopts{opts_.window, opts_.horizon};
  auto samples = ts::MakeWindows(series, wopts);
  if (!samples.ok()) return samples.status();

  windows_.clear();
  targets_.clear();
  if (samples->size() > kr_.max_samples) {
    Rng rng(opts_.seed);
    auto idx = rng.SampleWithoutReplacement(samples->size(), kr_.max_samples);
    std::sort(idx.begin(), idx.end());
    for (size_t i : idx) {
      windows_.push_back((*samples)[i].window);
      targets_.push_back((*samples)[i].target);
    }
  } else {
    for (auto& s : *samples) {
      windows_.push_back(std::move(s.window));
      targets_.push_back(s.target);
    }
  }
  fallback_ = Mean(targets_);

  if (kr_.bandwidth > 0.0) {
    bandwidth_ = kr_.bandwidth;
  } else {
    // Median heuristic over a bounded sample of pairwise distances.
    Rng rng(opts_.seed + 1);
    std::vector<double> dists;
    size_t pairs = std::min<size_t>(500, windows_.size() * 2);
    for (size_t k = 0; k < pairs && windows_.size() >= 2; ++k) {
      size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(windows_.size()) - 1));
      size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(windows_.size()) - 1));
      if (i == j) continue;
      dists.push_back(std::sqrt(SquaredDistance(windows_[i], windows_[j])));
    }
    if (dists.empty()) {
      bandwidth_ = 1.0;
    } else {
      std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                       dists.end());
      // A bandwidth equal to the median pairwise distance oversmooths badly
      // (nearly uniform weights => mean prediction); a fifth of the median
      // keeps the kernel local while still averaging across neighbors.
      bandwidth_ = std::max(1e-6, 0.2 * dists[dists.size() / 2]);
    }
  }
  fitted_ = true;
  return Status::OK();
}

StatusOr<double> KernelRegressionForecaster::Predict(
    const std::vector<double>& window) const {
  if (!fitted_) return Status::FailedPrecondition("KR: Fit not called");
  if (window.size() != opts_.window) {
    return Status::InvalidArgument("KR: window size mismatch");
  }
  double inv_2h2 = 1.0 / (2.0 * bandwidth_ * bandwidth_);
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < windows_.size(); ++i) {
    double w = std::exp(-SquaredDistance(window, windows_[i]) * inv_2h2);
    num += w * targets_[i];
    den += w;
  }
  if (den < 1e-300) return fallback_;
  return num / den;
}

int64_t KernelRegressionForecaster::StorageBytes() const {
  // Stores the full sample table: windows plus targets, as float32.
  int64_t per_sample = static_cast<int64_t>(opts_.window + 1) * 4;
  return static_cast<int64_t>(targets_.size()) * per_sample + 16;
}

namespace {
constexpr uint32_t kKrStateMagic = 0xDBA6AA01;
}  // namespace

StatusOr<std::vector<uint8_t>> KernelRegressionForecaster::SaveState() const {
  if (!fitted_) {
    return Status::FailedPrecondition("KR: SaveState before Fit");
  }
  BufWriter w;
  w.U32(kKrStateMagic);
  w.U64(opts_.window);
  w.F64(bandwidth_);
  w.F64(fallback_);
  w.U64(targets_.size());
  for (size_t i = 0; i < targets_.size(); ++i) {
    for (double v : windows_[i]) w.F64(v);
    w.F64(targets_[i]);
  }
  return w.Take();
}

Status KernelRegressionForecaster::LoadState(
    const std::vector<uint8_t>& buffer) {
  BufReader r(buffer);
  auto corrupt = [] {
    return Status::InvalidArgument("KR: truncated or corrupt state buffer");
  };
  uint32_t magic = 0;
  uint64_t window = 0;
  double bandwidth = 0.0;
  double fallback = 0.0;
  uint64_t samples = 0;
  if (!r.U32(&magic)) return corrupt();
  if (magic != kKrStateMagic) {
    return Status::InvalidArgument("KR: bad state magic");
  }
  if (!r.U64(&window) || !r.F64(&bandwidth) || !r.F64(&fallback) ||
      !r.U64(&samples)) {
    return corrupt();
  }
  if (window != opts_.window) {
    return Status::InvalidArgument(
        "KR: state window length does not match model options");
  }
  if (!(bandwidth > 0.0) || !std::isfinite(bandwidth)) {
    return Status::InvalidArgument("KR: state bandwidth not positive finite");
  }
  // A corrupt sample count must fail cleanly, not allocate gigabytes.
  if (samples > r.remaining() / ((window + 1) * 8)) return corrupt();
  // Parse everything before mutating, so a truncated tail leaves the model
  // unchanged and still usable.
  std::vector<std::vector<double>> windows(samples);
  std::vector<double> targets(samples);
  for (uint64_t i = 0; i < samples; ++i) {
    windows[i].resize(window);
    for (double& v : windows[i]) {
      if (!r.F64(&v)) return corrupt();
    }
    if (!r.F64(&targets[i])) return corrupt();
  }
  if (!r.AtEnd()) return corrupt();
  windows_ = std::move(windows);
  targets_ = std::move(targets);
  bandwidth_ = bandwidth;
  fallback_ = fallback;
  fitted_ = true;
  return Status::OK();
}

}  // namespace dbaugur::models
