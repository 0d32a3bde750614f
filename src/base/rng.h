/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic components of the library (dataset synthesis, parameter
 * initialization, batch shuffling, measurement noise) draw from this RNG so
 * that every experiment is reproducible from a single seed. The generator is
 * xoshiro256**, seeded through SplitMix64 as recommended by its authors.
 */
#ifndef GRANITE_BASE_RNG_H_
#define GRANITE_BASE_RNG_H_

#include <cstdint>
#include <vector>

namespace granite {

/** A small, fast, deterministic random number generator (xoshiro256**). */
class Rng {
 public:
  /** Creates a generator whose full state is derived from `seed`. */
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /** Returns the next raw 64-bit output. */
  uint64_t Next();

  /** Returns a uniform integer in [0, bound). `bound` must be positive. */
  uint64_t NextBounded(uint64_t bound);

  /** Returns a uniform integer in [lo, hi] inclusive. */
  int64_t NextInt(int64_t lo, int64_t hi);

  /** Returns a uniform double in [0, 1). */
  double NextDouble();

  /** Returns a uniform float in [lo, hi). */
  float NextUniform(float lo, float hi);

  /** Returns a standard normal sample (Box-Muller). */
  double NextGaussian();

  /** Returns true with probability `p`. */
  bool NextBernoulli(double p);

  /**
   * Samples an index from an unnormalized weight vector.
   * @param weights Non-negative weights; at least one must be positive.
   */
  std::size_t NextWeighted(const std::vector<double>& weights);

  /** Produces an in-place Fisher-Yates shuffle of indices [0, n). */
  std::vector<std::size_t> Permutation(std::size_t n);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace granite

#endif  // GRANITE_BASE_RNG_H_
