#include <gtest/gtest.h>

#include <cmath>

#include "econ/ratings.h"
#include "econ/user_study.h"
#include "econ/utility.h"
#include "util/error.h"

namespace aw4a::econ {
namespace {

TEST(Utility, CobbDouglasForm) {
  const UserParams u{.quality_weight = 0.4, .access_weight = 0.6};
  EXPECT_NEAR(utility(u, std::exp(1.0), std::exp(2.0)), 0.4 + 1.2, 1e-12);
  EXPECT_THROW((void)utility(u, 0.0, 1.0), LogicError);
}

TEST(Utility, ConcaveInBothArguments) {
  const UserParams u{.quality_weight = 0.5, .access_weight = 0.5};
  // Diminishing returns: the gain from 100->200 accesses exceeds 200->300.
  const double d1 = utility(u, 1.0, 200) - utility(u, 1.0, 100);
  const double d2 = utility(u, 1.0, 300) - utility(u, 1.0, 200);
  EXPECT_GT(d1, d2);
}

TEST(UserStudy, ChoicesSumToOne) {
  Rng rng(1);
  const auto bundles = usable_site_bundles();
  const auto shares = simulate_choices(rng, bundles);
  double total = 0;
  for (double s : shares) total += s;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(shares.size(), bundles.size());
}

TEST(UserStudy, UsableSitesGiveBimodalChoices) {
  // Paper Fig. 4c: (1.5x,125) and (6x,600) chosen with ~0.32 and ~0.31.
  Rng rng(2);
  StudyOptions options;
  options.participants = 4000;  // big sample for a tight estimate
  const auto shares = simulate_choices(rng, usable_site_bundles(), options);
  EXPECT_NEAR(shares.front(), 0.32, 0.10);
  EXPECT_NEAR(shares.back(), 0.31, 0.10);
  // Ends dominate the middle (corner solutions of log-log utility).
  EXPECT_GT(shares.front(), shares[1] - 0.05);
  EXPECT_GT(shares.back(), shares[2] - 0.05);
}

TEST(UserStudy, FragileSitesConcentrateOnMildReduction) {
  Rng rng(3);
  StudyOptions options;
  options.participants = 4000;
  const auto shares = simulate_choices(rng, fragile_site_bundles(), options);
  // Paper: (1.5x,150) most popular, with a significant mass above 2.9x.
  EXPECT_EQ(std::max_element(shares.begin(), shares.end()) - shares.begin(), 0);
  EXPECT_GT(shares.back(), 0.1);
}

TEST(UserStudy, ZeroNoiseIsArgmax) {
  Rng rng(4);
  StudyOptions options;
  options.participants = 500;
  options.choice_noise = 0.0;
  const auto shares = simulate_choices(rng, usable_site_bundles(), options);
  // With hard argmax and log utility the corners dominate. Bundle 1 (2.9x)
  // can be an interior optimum — its accesses-per-reduction beat bundle 0's
  // (125/1.5 < 290/2.9) — but bundle 2 (4.4x) never is.
  EXPECT_LT(shares[2], 0.05);
  EXPECT_GT(shares.front() + shares.back(), 0.70);
}

TEST(UserStudy, UtilityGainFractionSubstantial) {
  // §4.1/4.2 headline: a significant fraction of users gains from trading
  // quality for access (1.5x reduction, 1.5x accesses).
  Rng rng(5);
  StudyOptions options;
  options.participants = 2000;
  const double frac = fraction_with_utility_gain(rng, options, 2.47, 100, 2.47 / 1.5, 150);
  EXPECT_GT(frac, 0.3);
  EXPECT_LT(frac, 0.8);
}

TEST(Ratings, LevelZeroForTinyReductions) {
  const PageShares shares{};
  EXPECT_EQ(required_optimization_level(shares, 1.05), OptimizationLevel::kLossless);
}

TEST(Ratings, LevelsEscalateWithReduction) {
  const PageShares shares{.images = 0.45, .js = 0.34, .external_js = 0.2};
  int prev = -1;
  for (double r : {1.1, 1.25, 1.5, 2.2, 3.0, 6.0, 20.0}) {
    const int level = static_cast<int>(required_optimization_level(shares, r));
    EXPECT_GE(level, prev) << "reduction " << r;
    prev = level;
  }
  EXPECT_EQ(required_optimization_level(shares, 20.0), OptimizationLevel::kUnusable);
}

TEST(Ratings, ImageHeavyPagesReachDeepReductionsUsable) {
  const PageShares image_heavy{.images = 0.70, .js = 0.15, .external_js = 0.10};
  const PageShares js_heavy{.images = 0.15, .js = 0.55, .external_js = 0.35};
  // 3x reduction: image-heavy pages manage with image removal (level <= 2+)..
  EXPECT_LE(static_cast<int>(required_optimization_level(image_heavy, 3.0)), 3);
  // ..JS-heavy pages need to go after scripts.
  EXPECT_GE(static_cast<int>(required_optimization_level(js_heavy, 3.0)), 3);
}

TEST(Ratings, UsableAtAllButLevelFive) {
  EXPECT_TRUE(usable_at(OptimizationLevel::kLossless));
  EXPECT_TRUE(usable_at(OptimizationLevel::kNoImagesExtJs));
  EXPECT_FALSE(usable_at(OptimizationLevel::kUnusable));
}

TEST(Ratings, DissimilarityMonotoneInQualityLoss) {
  EXPECT_DOUBLE_EQ(dissimilarity_rating(1.0), 0.0);
  EXPECT_GT(dissimilarity_rating(0.7), dissimilarity_rating(0.9));
  EXPECT_LE(dissimilarity_rating(0.0), 5.0);
  EXPECT_THROW((void)dissimilarity_rating(1.5), LogicError);
}

TEST(Ratings, NoiseStaysInScale) {
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const double r = dissimilarity_rating(0.5, &rng);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 5.0);
  }
}

class SampleUserTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SampleUserTest, WeightsInBoundsAndComplementary) {
  Rng rng(GetParam());
  const StudyOptions options;
  for (int i = 0; i < 100; ++i) {
    const UserParams u = sample_user(rng, options);
    EXPECT_GE(u.quality_weight, 0.05);
    EXPECT_LE(u.quality_weight, 0.95);
    EXPECT_NEAR(u.quality_weight + u.access_weight, 1.0, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampleUserTest, ::testing::Values(1ull, 2ull, 3ull));

}  // namespace
}  // namespace aw4a::econ
