#include "net/compress.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace aw4a::net {
namespace {

TEST(GzipSize, TinyInputsPassThrough) {
  const std::string s = "abc";
  EXPECT_EQ(gzip_size(s), s.size() + 20);
}

TEST(GzipSize, RepetitiveDataCompressesHard) {
  const std::string s(50000, 'x');
  EXPECT_LT(gzip_size(s), s.size() / 20);
}

TEST(GzipSize, RandomDataDoesNotCompress) {
  Rng rng(1);
  std::vector<std::uint8_t> data(20000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  // Entropy-limited: near input size (never above input + overhead).
  EXPECT_GT(gzip_size(data), data.size() * 9 / 10);
  EXPECT_LE(gzip_size(data), data.size() + 20);
}

TEST(GzipSize, DeterministicAndMonotoneInRepeats) {
  const std::string unit = "function foo(bar) { return bar + 1; }\n";
  std::string two;
  std::string ten;
  for (int i = 0; i < 2; ++i) two += unit;
  for (int i = 0; i < 10; ++i) ten += unit;
  EXPECT_EQ(gzip_size(ten), gzip_size(ten));
  // Ten copies compress to much less than 5x the two-copy cost.
  EXPECT_LT(gzip_size(ten), 3 * gzip_size(two));
}

}  // namespace
}  // namespace aw4a::net
