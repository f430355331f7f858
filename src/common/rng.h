// Deterministic random number generation.
//
// All stochastic components (weight init, minibatch sampling, synthetic
// workload generators) draw from an explicitly seeded Rng so experiments,
// tests, and benches are reproducible run-to-run.

#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace dbaugur {

/// A seeded pseudo-random source wrapping std::mt19937_64 with the handful of
/// distributions the library needs.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean / standard deviation.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Poisson draw with the given rate (clamped to >= 0).
  int64_t Poisson(double lambda) {
    if (lambda <= 0.0) return 0;
    return std::poisson_distribution<int64_t>(lambda)(engine_);
  }

  /// Bernoulli draw.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Returns a random permutation of {0, ..., n-1}.
  std::vector<size_t> Permutation(size_t n);

  /// Samples `k` distinct indices from {0, ..., n-1} (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dbaugur
