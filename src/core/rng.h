#ifndef GEOTORCH_CORE_RNG_H_
#define GEOTORCH_CORE_RNG_H_

#include <cstdint>
#include <random>

namespace geotorch {

/// Deterministic random source used by generators, initializers, and
/// data loaders. Every consumer takes an explicit seed so experiments
/// are exactly reproducible run-to-run.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Poisson-distributed count with the given mean.
  int64_t Poisson(double mean) {
    return std::poisson_distribution<int64_t>(mean)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace geotorch

#endif  // GEOTORCH_CORE_RNG_H_
