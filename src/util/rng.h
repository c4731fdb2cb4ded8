// Deterministic random number generation for the synthetic substrates.
//
// Every source of randomness in this repository flows through an explicit Rng
// instance (no global state, no std::random_device), so each experiment is
// reproducible from its seed. The core generator is xoshiro256**, seeded via
// splitmix64; distributions are implemented on top so results are identical
// across standard libraries.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace aw4a {

/// xoshiro256** pseudo-random generator with convenience distributions.
class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Deterministically derives an independent stream, e.g. per country or per
  /// page: child streams do not overlap with the parent's output.
  Rng fork(std::uint64_t stream_id) const;

  /// Derives a stream from a label; handy for naming sub-experiments.
  Rng fork(std::string_view label) const;

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi). Requires lo < hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal();

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double normal(double mean, double sigma);

  /// Log-normal parameterized by the mean/sigma of the underlying normal.
  double lognormal(double mu, double sigma);

  /// True with probability p in [0, 1].
  bool bernoulli(double p);

  /// Index in [0, weights.size()) with probability proportional to weights[i].
  /// Requires at least one strictly positive weight.
  std::size_t categorical(std::span<const double> weights);

  /// Zipf-distributed rank in [1, n] with exponent s > 0 (popularity ranks).
  std::size_t zipf(std::size_t n, double s);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

/// 64-bit stable hash of a string (FNV-1a); used to derive per-label streams.
std::uint64_t stable_hash(std::string_view s);

}  // namespace aw4a
