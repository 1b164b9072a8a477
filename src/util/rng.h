#ifndef BESTPEER_UTIL_RNG_H_
#define BESTPEER_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bestpeer {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. All randomness in the simulator, workload generators and
/// tests flows through this type so that every experiment is reproducible
/// from a single seed.
class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform value in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with probability p of returning true.
  bool NextBool(double p = 0.5);

  /// Exponentially distributed value with the given mean (> 0).
  double NextExponential(double mean);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = NextBounded(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator (for per-node streams).
  Rng Fork();

 private:
  uint64_t s_[4];
};

/// Samples ranks from a Zipf(s, n) distribution over {0, .., n-1} where
/// rank 0 is the most popular. Used by the workload generator to produce
/// realistically skewed keyword popularity.
///
/// Inversion through a guide table: the CDF's first entry >= k/G is
/// precomputed for each of G = bit_ceil(4n) cells, so a draw starts at
/// its cell's entry and steps forward (about 1.25 comparisons on
/// average). G is a power of two, so u*G and k/G are exact and the rank
/// equals std::lower_bound(cdf, u) for every u: the same draws yield the
/// same ranks as a binary search over the CDF.
class ZipfSampler {
 public:
  /// n: universe size (> 0); s: skew (s = 0 is uniform, larger = more skew).
  ZipfSampler(size_t n, double s);

  /// Draws one rank in [0, n): Rank(rng.NextDouble()).
  size_t Sample(Rng& rng) const { return Rank(rng.NextDouble()); }

  /// The rank of a uniform draw u in [0, 1): the first rank whose CDF
  /// value is >= u.
  size_t Rank(double u) const;

  size_t universe_size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
  /// guide_[k] = first rank whose CDF value is >= k / guide_.size().
  std::vector<uint32_t> guide_;
};

}  // namespace bestpeer

#endif  // BESTPEER_UTIL_RNG_H_
