#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace aw4a {
namespace {

TEST(Stats, MeanAndStdev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stdev(xs), 2.138, 1e-3);
}

TEST(Stats, EmptyAndSingleton) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(stdev({}), 0.0);
  const std::vector<double> one{3.0};
  EXPECT_EQ(stdev(one), 0.0);
  EXPECT_EQ(median(one), 3.0);
}

TEST(Stats, MedianEvenOdd) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 25.0);
}

TEST(Stats, PercentileRejectsBadArgs) {
  EXPECT_THROW((void)percentile({}, 50.0), LogicError);
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)percentile(xs, 101.0), LogicError);
}

TEST(Stats, EcdfAtAndQuantileAreInverse) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(ecdf_at(xs, 3.0), 0.6);
  EXPECT_DOUBLE_EQ(ecdf_at(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ecdf_at(xs, 99.0), 1.0);
  const Ecdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.6), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
}

TEST(Stats, EcdfCurveMonotone) {
  Rng rng(1);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.normal(0, 1);
  const Ecdf cdf(xs);
  const auto curve = cdf.curve(25);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].x, curve[i].x);
    EXPECT_LT(curve[i - 1].p, curve[i].p);
  }
  EXPECT_DOUBLE_EQ(curve.back().p, 1.0);
}

TEST(Stats, Ci95ShrinksWithSampleSize) {
  Rng rng(3);
  std::vector<double> small(50);
  std::vector<double> large(5000);
  for (auto& x : small) x = rng.normal(0, 1);
  for (auto& x : large) x = rng.normal(0, 1);
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
}

TEST(Stats, SummarizeMentionsKeyFigures) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::string s = summarize(xs);
  EXPECT_NE(s.find("n=3"), std::string::npos);
  EXPECT_NE(s.find("mean=2"), std::string::npos);
  EXPECT_EQ(summarize({}), "(empty)");
}

// Percentile is monotone in p for any sample.
class PercentileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileMonotone, Holds) {
  Rng rng(GetParam());
  std::vector<double> xs(100);
  // Heavy-tailed: Pareto(x_m = 1, alpha = 1.1) by inverse CDF.
  for (auto& x : xs) x = 1.0 / std::pow(1.0 - rng.uniform(), 1.0 / 1.1);
  double prev = percentile(xs, 0);
  for (double p = 5; p <= 100; p += 5) {
    const double cur = percentile(xs, p);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone, ::testing::Values(1ull, 2ull, 3ull, 4ull));

}  // namespace
}  // namespace aw4a
