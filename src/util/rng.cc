#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace aw4a {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
  // Avoid the (astronomically unlikely but invalid) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Mix the current state with the stream id; does not advance the parent.
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 17) ^ (stream_id * 0xd1342543de82ef95ULL + 1);
  return Rng(mix);
}

Rng Rng::fork(std::string_view label) const { return fork(stable_hash(label)); }

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  AW4A_EXPECTS(lo < hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  AW4A_EXPECTS(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = std::uint64_t(-1) - std::uint64_t(-1) % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::normal() {
  // Box-Muller; draws until u1 is nonzero so log() is finite.
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double sigma) {
  AW4A_EXPECTS(sigma >= 0.0);
  return mean + sigma * normal();
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

bool Rng::bernoulli(double p) {
  AW4A_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform() < p;
}

std::size_t Rng::categorical(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    AW4A_EXPECTS(w >= 0.0);
    total += w;
  }
  AW4A_EXPECTS(total > 0.0);
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: land on the last bucket
}

std::size_t Rng::zipf(std::size_t n, double s) {
  AW4A_EXPECTS(n > 0 && s > 0.0);
  // Inverse-CDF on the (cached-free, O(n) worst case) harmonic weights. The
  // ranks we draw are small (n <= a few thousand), so a direct scan is fine.
  double h = 0.0;
  for (std::size_t k = 1; k <= n; ++k) h += 1.0 / std::pow(static_cast<double>(k), s);
  double x = uniform() * h;
  for (std::size_t k = 1; k <= n; ++k) {
    x -= 1.0 / std::pow(static_cast<double>(k), s);
    if (x < 0.0) return k;
  }
  return n;
}

std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace aw4a
