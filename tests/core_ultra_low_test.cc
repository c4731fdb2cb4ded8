#include "core/ultra_low.h"

#include <gtest/gtest.h>

#include "core/api.h"
#include "core/knapsack.h"
#include "core/rbr.h"
#include "dataset/corpus.h"
#include "imaging/fingerprint.h"
#include "serving/origin.h"
#include "util/rng.h"
#include "util/table.h"
#include "web/markup.h"

namespace aw4a::core {
namespace {

web::WebPage rich_page(std::uint64_t seed = 73, Bytes size = from_mb(1.4)) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, size, gen.global_profile());
}

DeveloperConfig ultra_config() {
  DeveloperConfig config;
  config.tier_reductions = {1.5, 3.0};
  config.measure_qfs = false;
  config.ultra_low.text_only = true;
  config.ultra_low.markup_rewrite = true;
  return config;
}

// Shared ladder fixture: tier builds run the full pipeline, so build once.
class UltraLowTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    page_ = new web::WebPage(rich_page());
    tiers_ = new std::vector<Tier>(Aw4aPipeline(ultra_config()).build_tiers(*page_));
  }
  static void TearDownTestSuite() {
    delete tiers_;
    delete page_;
    tiers_ = nullptr;
    page_ = nullptr;
  }
  static web::WebPage* page_;
  static std::vector<Tier>* tiers_;
};

web::WebPage* UltraLowTest::page_ = nullptr;
std::vector<Tier>* UltraLowTest::tiers_ = nullptr;

TEST_F(UltraLowTest, UltraTiersAppendBelowTheImageLadder) {
  ASSERT_EQ(tiers_->size(), 4u);
  EXPECT_EQ((*tiers_)[0].kind, TierKind::kImage);
  EXPECT_EQ((*tiers_)[1].kind, TierKind::kImage);
  EXPECT_EQ((*tiers_)[2].kind, TierKind::kTextOnly);
  EXPECT_EQ((*tiers_)[3].kind, TierKind::kMarkupRewrite);
  for (const Tier& tier : *tiers_) {
    EXPECT_TRUE(tier.built) << tier.note;
    // Ultra tiers are constructions: their own size is the target, met by
    // definition. (Image tiers may legitimately miss a hard byte target.)
    if (tier.kind != TierKind::kImage) {
      EXPECT_TRUE(tier.result.met_target) << to_string(tier.kind);
    }
  }
  // Constructions report what they achieved as what they requested.
  EXPECT_NEAR((*tiers_)[2].requested_reduction, (*tiers_)[2].achieved_reduction(), 1e-9);
  EXPECT_NEAR((*tiers_)[3].requested_reduction, (*tiers_)[3].achieved_reduction(), 1e-9);
}

TEST_F(UltraLowTest, MarkupTierIsTheDeepestRung) {
  // The markup tier dominates everything. The text-only tier keeps scripts
  // (the page stays functional), so it reduces but need not beat a deep
  // image tier on JS-heavy pages — the ladder is legitimately non-monotone.
  const double deepest_image =
      std::max((*tiers_)[0].achieved_reduction(), (*tiers_)[1].achieved_reduction());
  EXPECT_GT((*tiers_)[2].achieved_reduction(), 1.0);
  EXPECT_GT((*tiers_)[3].achieved_reduction(), deepest_image);
  EXPECT_GT((*tiers_)[3].achieved_reduction(), (*tiers_)[2].achieved_reduction())
      << "the single-file rewrite is the deepest rung";
}

TEST_F(UltraLowTest, MarkupTierSavesAtLeast85Percent) {
  // The acceptance bar for the deepest rung: >= 85% of page bytes gone.
  EXPECT_GE((*tiers_)[3].savings_fraction(), 0.85);
}

TEST_F(UltraLowTest, TextOnlyTierKeepsThePageFunctional) {
  const TranscodeResult& result = (*tiers_)[2].result;
  EXPECT_EQ(result.algorithm, "ultra/text-only");
  // Scripts stay at this tier, so functionality is intact by construction.
  for (const web::WebObject& o : page_->objects) {
    if (o.type == web::ObjectType::kJs) {
      EXPECT_FALSE(result.served.is_dropped(o.id));
    }
    if (o.type == web::ObjectType::kImage && !o.is_ad && o.image != nullptr) {
      ASSERT_TRUE(result.served.images.count(o.id));
      const auto& v = result.served.images.at(o.id).variant;
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(v->kind, imaging::DegradationKind::kPlaceholder);
    }
  }
}

TEST_F(UltraLowTest, MarkupTierShipsOneBlob) {
  const TranscodeResult& result = (*tiers_)[3].result;
  EXPECT_EQ(result.algorithm, "ultra/markup-rewrite");
  ASSERT_NE(result.served.rewrite, nullptr);
  EXPECT_EQ(result.result_bytes, result.served.rewrite->transfer_bytes);
}

TEST_F(UltraLowTest, PawTierReachesUltraRungsForUnaffordableCountries) {
  // A country whose PAW demands more than the image ladder can give must be
  // routed to an ultra tier, not stuck at the deepest image rung.
  const double deepest_image =
      std::max((*tiers_)[0].achieved_reduction(), (*tiers_)[1].achieved_reduction());
  bool exercised = false;
  for (const dataset::Country& country : dataset::countries()) {
    if (!country.has_price_data) continue;
    const double paw = paw_index(country, net::PlanType::kDataVoiceLowUsage);
    if (paw <= deepest_image + 1e-9) continue;
    const std::size_t idx = paw_tier(*tiers_, country, net::PlanType::kDataVoiceLowUsage);
    EXPECT_NE((*tiers_)[idx].kind, TierKind::kImage) << country.name;
    exercised = true;
  }
  EXPECT_TRUE(exercised) << "no country demanded ultra depth; fixture too mild";
}

TEST_F(UltraLowTest, ServerNamesUltraTiersInTheHeader) {
  const serving::OriginServer server(
      {{.host = "ultra.example", .page = *page_, .config = ultra_config()}});
  net::HttpRequest request;
  request.headers.push_back({"Host", "ultra.example"});
  request.headers.push_back({"Save-Data", "on"});
  // Savings just under the markup tier's: lands on an ultra tier by gap.
  request.headers.push_back(
      {"AW4A-Savings", fmt((*tiers_)[3].savings_fraction() * 100.0, 2)});
  const net::HttpResponse response = server.handle(request);
  std::string tier_header;
  for (const auto& [name, value] : response.headers) {
    if (name == "AW4A-Tier") tier_header = value;
  }
  EXPECT_EQ(tier_header, "markup-rewrite");
}

TEST(UltraLowSolvers, KnapsackSelectsPlaceholderRungsUnderTightBudgets) {
  const web::WebPage page = rich_page(74);
  imaging::LadderOptions options;
  options.placeholder_rung = true;
  LadderCache ladders(options);
  web::ServedPage served = web::serve_original(page);
  KnapsackOptions ko;
  ko.quality_threshold = 0.3;  // ultra-low Qt admits the placeholder floor
  (void)knapsack_optimize(served, page.transfer_size() / 50, ladders, ko);
  int placeholders = 0;
  for (const auto& [id, image] : served.images) {
    if (image.variant.has_value() &&
        image.variant->kind == imaging::DegradationKind::kPlaceholder) {
      ++placeholders;
    }
  }
  EXPECT_GT(placeholders, 0)
      << "a 50x budget below any encode rung must drive images to placeholders";
}

TEST(UltraLowSolvers, RbrDescendsToPlaceholdersOnlyWhenQtAdmitsThem) {
  const web::WebPage page = rich_page(75);
  imaging::LadderOptions options;
  options.placeholder_rung = true;
  LadderCache ladders(options);
  const Bytes impossible = page.transfer_size() / 60;

  web::ServedPage strict = web::serve_original(page);
  RbrOptions high_qt;  // the paper's default Qt: placeholders are out of set
  (void)rank_based_reduce(strict, impossible, ladders, high_qt);
  for (const auto& [id, image] : strict.images) {
    if (image.variant.has_value()) {
      EXPECT_NE(image.variant->kind, imaging::DegradationKind::kPlaceholder);
    }
  }

  web::ServedPage loose = web::serve_original(page);
  RbrOptions low_qt;
  low_qt.quality_threshold = 0.3;
  const RbrOutcome outcome = rank_based_reduce(loose, impossible, ladders, low_qt);
  int placeholders = 0;
  for (const auto& [id, image] : loose.images) {
    if (image.variant.has_value() &&
        image.variant->kind == imaging::DegradationKind::kPlaceholder) {
      ++placeholders;
    }
  }
  EXPECT_GT(placeholders, 0);
  EXPECT_LE(loose.transfer_size(), strict.transfer_size());
  EXPECT_GT(outcome.images_touched, 0);
}

TEST(UltraLowFingerprints, PlaceholderRungIsPartOfTheRungSpace) {
  imaging::LadderOptions a;  // image-only: the pre-refactor rung space
  imaging::LadderOptions c = a;
  c.placeholder_rung = true;
  EXPECT_NE(imaging::ladder_options_fingerprint(a), imaging::ladder_options_fingerprint(c));
}

TEST(UltraLowConfig, ImageOnlyConfigsBuildOnlyImageTiers) {
  // A config that never asks for ultra tiers builds exactly its image
  // ladder: one image tier per requested reduction, nothing appended.
  const web::WebPage page = rich_page(76, from_mb(0.9));
  DeveloperConfig image_only;
  image_only.tier_reductions = {1.5, 3.0};
  image_only.measure_qfs = false;

  const std::vector<Tier> tiers = Aw4aPipeline(image_only).build_tiers(page);
  ASSERT_EQ(tiers.size(), image_only.tier_reductions.size());
  for (const Tier& tier : tiers) EXPECT_EQ(tier.kind, TierKind::kImage);
}

}  // namespace
}  // namespace aw4a::core
