#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/stats.h"

namespace aw4a {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng parent(7);
  Rng probe(7);
  (void)parent.fork(1);
  (void)parent.fork("label");
  EXPECT_EQ(parent.next_u64(), probe.next_u64());
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(7);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, NormalMoments) {
  Rng rng(6);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(mean(xs), 10.0, 0.1);
  EXPECT_NEAR(stdev(xs), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(10);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(11);
  const double weights[] = {1.0, 3.0, 0.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.categorical(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 10000.0, 0.75, 0.03);
}

TEST(Rng, CategoricalRejectsAllZero) {
  Rng rng(12);
  const double weights[] = {0.0, 0.0};
  EXPECT_THROW((void)rng.categorical(weights), LogicError);
}

TEST(Rng, ZipfRankOneMostFrequent) {
  Rng rng(13);
  int counts[6] = {0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.zipf(5, 1.0)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[4]);
  EXPECT_EQ(counts[0], 0);  // ranks are 1-based
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(StableHash, DiffersAcrossStringsAndIsStable) {
  EXPECT_EQ(stable_hash("pakistan"), stable_hash("pakistan"));
  EXPECT_NE(stable_hash("pakistan"), stable_hash("india"));
  EXPECT_NE(stable_hash(""), stable_hash("a"));
}

// Property sweep: distributions respect their support across parameters.
class RngParamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngParamTest, LognormalPositive) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) EXPECT_GT(rng.lognormal(0.0, 1.2), 0.0);
}

TEST_P(RngParamTest, Uniform53BitResolutionNeverOne) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngParamTest,
                         ::testing::Values(1ull, 42ull, 999ull, 0xDEADBEEFull, 7777777ull));

}  // namespace
}  // namespace aw4a
