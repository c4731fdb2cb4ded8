#include "net/compress.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "util/error.h"
#include "util/fault.h"

namespace aw4a::net {
namespace {

// ---------------------------------------------------------------------------
// LZ77 + entropy back end
// ---------------------------------------------------------------------------

constexpr std::size_t kWindow = 32 * 1024;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 258;
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

double entropy_bits(const std::map<std::uint32_t, std::uint64_t>& freq) {
  std::uint64_t total = 0;
  for (const auto& [sym, n] : freq) total += n;
  if (total == 0) return 0.0;
  double bits = 0.0;
  for (const auto& [sym, n] : freq) {
    const double p = static_cast<double>(n) / static_cast<double>(total);
    bits += static_cast<double>(n) * -std::log2(p);
  }
  return bits;
}

// Deflate-style bucketing: code lengths/distances into log-scale buckets with
// extra bits, which is what makes short distances cheap.
std::uint32_t length_bucket(std::size_t len) {
  std::uint32_t b = 0;
  std::size_t v = len - kMinMatch + 1;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return 256 + b;  // offset past the literal alphabet
}

std::uint32_t distance_bucket(std::size_t dist) {
  std::uint32_t b = 0;
  std::size_t v = dist;
  while (v > 1) {
    v >>= 1;
    ++b;
  }
  return b;
}

double length_extra_bits(std::size_t len) {
  return std::max(0.0, std::floor(std::log2(static_cast<double>(len - kMinMatch + 1))));
}

double distance_extra_bits(std::size_t dist) {
  return std::max(0.0, std::floor(std::log2(static_cast<double>(dist))));
}

}  // namespace

Bytes gzip_size(std::span<const std::uint8_t> data) {
  AW4A_FAULT_POINT("net.compress.gzip");
  constexpr Bytes kGzipOverhead = 20;  // header + CRC32 + ISIZE
  if (data.size() < kMinMatch) return data.size() + kGzipOverhead;

  // Greedy hash-head LZ77 parse (single previous-candidate chain; this is a
  // cost model, not an archiver, so one candidate is a fine trade-off).
  std::vector<std::size_t> head(kHashSize, SIZE_MAX);
  std::map<std::uint32_t, std::uint64_t> lit_len_freq;  // literals + length buckets
  std::map<std::uint32_t, std::uint64_t> dist_freq;
  double extra_bits = 0.0;

  std::size_t i = 0;
  while (i < data.size()) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= data.size()) {
      const std::uint32_t h = hash4(data.data() + i);
      const std::size_t cand = head[h];
      if (cand != SIZE_MAX && cand < i && i - cand <= kWindow) {
        const std::size_t limit = std::min(kMaxMatch, data.size() - i);
        std::size_t len = 0;
        while (len < limit && data[cand + len] == data[i + len]) ++len;
        if (len >= kMinMatch) {
          best_len = len;
          best_dist = i - cand;
        }
      }
      head[h] = i;
    }
    if (best_len >= kMinMatch) {
      ++lit_len_freq[length_bucket(best_len)];
      ++dist_freq[distance_bucket(best_dist)];
      extra_bits += length_extra_bits(best_len) + distance_extra_bits(best_dist);
      // Insert hash entries inside the match so later matches can refer here.
      const std::size_t end = std::min(i + best_len, data.size() - kMinMatch);
      for (std::size_t j = i + 1; j < end; ++j) head[hash4(data.data() + j)] = j;
      i += best_len;
    } else {
      ++lit_len_freq[data[i]];
      ++i;
    }
  }

  const double payload_bits =
      entropy_bits(lit_len_freq) + entropy_bits(dist_freq) + extra_bits;
  // Dynamic Huffman table description cost: roughly proportional to the
  // alphabet actually used.
  const double table_bits =
      8.0 * static_cast<double>(lit_len_freq.size() + dist_freq.size());
  const Bytes payload = static_cast<Bytes>(std::ceil((payload_bits + table_bits) / 8.0));
  return std::min<Bytes>(payload + kGzipOverhead, data.size() + kGzipOverhead);
}

Bytes gzip_size(const std::string& text) {
  return gzip_size(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace aw4a::net
