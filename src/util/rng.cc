#include "util/rng.h"

#include <bit>
#include <cassert>
#include <cmath>

namespace bestpeer {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextExponential(double mean) {
  assert(mean > 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

Rng Rng::Fork() { return Rng(NextU64()); }

ZipfSampler::ZipfSampler(size_t n, double s) {
  assert(n > 0 && n <= UINT32_MAX);
  cdf_.resize(n);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  // cdf_.back() is sum / sum == 1.0 > every u, so Rank's forward step
  // always stops inside the table.
  guide_.resize(std::bit_ceil(4 * n));
  const double cell = 1.0 / static_cast<double>(guide_.size());
  uint32_t rank = 0;
  for (size_t k = 0; k < guide_.size(); ++k) {
    while (cdf_[rank] < static_cast<double>(k) * cell) ++rank;
    guide_[k] = rank;
  }
}

size_t ZipfSampler::Rank(double u) const {
  assert(u >= 0.0 && u < 1.0);
  size_t rank =
      guide_[static_cast<size_t>(u * static_cast<double>(guide_.size()))];
  while (cdf_[rank] < u) ++rank;
  return rank;
}

}  // namespace bestpeer
