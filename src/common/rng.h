// Fast, reproducible random number generation.
//
// The distributed-counter hot path draws one Bernoulli variate per counter
// increment (hundreds of millions per experiment), so we use xoshiro256++
// (Blackman & Vigna, public domain) rather than std::mt19937_64. All
// experiment entry points take an explicit 64-bit seed; derived streams are
// split off deterministically with SplitMix64 so that sites, counters, and
// samplers do not share state.

#ifndef DSGM_COMMON_RNG_H_
#define DSGM_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace dsgm {

/// SplitMix64 step: the standard 64-bit mixer used to seed other generators,
/// to derive independent substreams from one master seed, and (applied to a
/// key) as the counter sites' report coin (monitor/counter_protocol.h).
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ pseudo-random generator. Satisfies the essentials of
/// UniformRandomBitGenerator so it can also drive <random> distributions.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the four state words through SplitMix64, per the reference
  /// implementation's recommendation.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  /// Returns a new generator whose stream is independent of this one
  /// (derived by mixing the next output; deterministic given the seed).
  Rng Split() { return Rng(Next() ^ 0xd3833e804f4c574bULL); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return Next(); }

  /// Next raw 64 bits.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound). `bound` must be positive.
  uint64_t NextBounded(uint64_t bound) {
    DSGM_DCHECK(bound > 0);
    // Lemire's multiply-shift rejection method.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<uint64_t>(m);
    if (low < bound) {
      const uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    DSGM_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p) {
    if (p >= 1.0) return true;
    if (p <= 0.0) return false;
    return NextDouble() < p;
  }

  /// Standard normal via the polar (Marsaglia) method.
  double NextGaussian();

  /// Gamma(shape, 1) via Marsaglia-Tsang, valid for any shape > 0.
  double NextGamma(double shape);

  /// A point from Dirichlet(alpha, ..., alpha) of dimension `dim`.
  /// Larger alpha => more uniform; alpha < 1 => spiky (skewed) vectors.
  std::vector<double> NextDirichlet(int dim, double alpha);

  /// Samples an index from an (unnormalized) non-negative weight vector.
  int NextCategorical(const std::vector<double>& weights);

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

/// Zipf(s) sampler over {0, ..., n-1} using the inverse-CDF table method.
/// Used by the site-skew ablation to route events non-uniformly to sites.
class ZipfDistribution {
 public:
  ZipfDistribution(int n, double exponent);

  int Sample(Rng& rng) const;

  int n() const { return static_cast<int>(cdf_.size()); }

 private:
  std::vector<double> cdf_;
};

}  // namespace dsgm

#endif  // DSGM_COMMON_RNG_H_
