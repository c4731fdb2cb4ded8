// Tests for the lite-video extension (paper §10 future work).
#include <gtest/gtest.h>

#include "core/hbs.h"
#include "core/media_reduction.h"
#include "dataset/corpus.h"
#include "util/rng.h"
#include "web/media.h"

namespace aw4a {
namespace {

web::MediaAsset asset(std::uint64_t seed = 1, Bytes wire = 300 * kKB) {
  Rng rng(seed);
  return web::make_media_asset(rng, wire);
}

TEST(MediaAsset, LadderShapeAndAnchoring) {
  const auto a = asset();
  ASSERT_EQ(a.ladder.size(), 5u);
  EXPECT_EQ(a.ladder.front().bytes, 300 * kKB);
  EXPECT_DOUBLE_EQ(a.ladder.front().quality, 1.0);
  EXPECT_EQ(a.ladder.front().height_px, 1080);
  for (std::size_t i = 1; i < a.ladder.size(); ++i) {
    EXPECT_LT(a.ladder[i].bytes, a.ladder[i - 1].bytes);
    EXPECT_LT(a.ladder[i].quality, a.ladder[i - 1].quality);
    EXPECT_LT(a.ladder[i].height_px, a.ladder[i - 1].height_px);
    EXPECT_GT(a.ladder[i].quality, 0.0);
  }
}

TEST(MediaAsset, RateDistortionFormIsConcave) {
  // Diminishing returns: marginal quality per kbps falls as bitrate grows.
  const auto a = asset(2);
  auto slope = [&](std::size_t hi, std::size_t lo) {
    return (a.ladder[hi].quality - a.ladder[lo].quality) /
           static_cast<double>(a.ladder[hi].bitrate_kbps - a.ladder[lo].bitrate_kbps);
  };
  EXPECT_LT(slope(0, 1), slope(1, 2));
  EXPECT_LT(slope(1, 2), slope(3, 4));
}

TEST(MediaAsset, CheapestAtLeastRespectsFloor) {
  const auto a = asset(3);
  const auto& r = a.cheapest_at_least(0.8);
  EXPECT_GE(r.quality, 0.8);
  // Everything cheaper is below the floor.
  for (const auto& other : a.ladder) {
    if (other.bytes < r.bytes) {
      EXPECT_LT(other.quality, 0.8);
    }
  }
  // An impossible floor returns the shipped rendition.
  EXPECT_EQ(a.cheapest_at_least(2.0).bytes, a.ladder.front().bytes);
}

web::WebPage media_rich_page(std::uint64_t seed) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  dataset::CompositionProfile p = gen.global_profile();
  p.of(web::ObjectType::kMedia) = 0.25;  // media-heavy page
  p.of(web::ObjectType::kImage) = 0.30;
  return gen.make_page(rng, from_mb(2.0), p);
}

TEST(MediaReduction, MeetsTargetAndRecordsRenditions) {
  const web::WebPage page = media_rich_page(10);
  ASSERT_GT(page.count(web::ObjectType::kMedia), 0u);
  web::ServedPage served = web::serve_original(page);
  const Bytes media_bytes = page.transfer_size(web::ObjectType::kMedia);
  const Bytes target = page.transfer_size() - media_bytes * 3 / 10;
  core::MediaReductionOptions options;
  options.enabled = true;
  options.quality_floor = 0.3;
  const auto outcome = core::apply_media_reduction(served, target, options);
  EXPECT_TRUE(outcome.met_target);
  EXPECT_GT(outcome.clips_reduced, 0);
  for (const auto& [id, rendition] : served.media) {
    EXPECT_GE(rendition.quality, 0.3);
  }
}

TEST(MediaReduction, FloorBindsOnImpossibleTargets) {
  const web::WebPage page = media_rich_page(11);
  web::ServedPage served = web::serve_original(page);
  core::MediaReductionOptions options;
  options.enabled = true;
  options.quality_floor = 0.9;
  const auto outcome = core::apply_media_reduction(served, 1, options);
  EXPECT_FALSE(outcome.met_target);
  for (const auto& [id, rendition] : served.media) {
    EXPECT_GE(rendition.quality, 0.9 - 1e-12);
  }
}

TEST(MediaReduction, QmsReflectsChoices) {
  const web::WebPage page = media_rich_page(12);
  web::ServedPage served = web::serve_original(page);
  EXPECT_DOUBLE_EQ(core::compute_qms(served), 1.0);
  core::MediaReductionOptions options;
  options.enabled = true;
  options.quality_floor = 0.4;
  core::apply_media_reduction(served, 1, options);
  const double qms = core::compute_qms(served);
  EXPECT_LT(qms, 1.0);
  EXPECT_GE(qms, 0.4 - 1e-9);
}

TEST(MediaReduction, HbsIntegrationUsesLadderBeforeImages) {
  const web::WebPage page = media_rich_page(13);
  core::LadderCache ladders;
  core::HbsOptions options;
  options.measure_qfs = false;
  options.media.enabled = true;
  options.media.quality_floor = 0.5;
  const Bytes target = page.transfer_size() * 80 / 100;
  const auto result =
      core::hbs_transcode(page, web::serve_original(page), target, ladders, options);
  EXPECT_TRUE(result.met_target);
  EXPECT_FALSE(result.served.media.empty());
}

TEST(MediaReduction, DisabledByDefault) {
  const web::WebPage page = media_rich_page(14);
  core::LadderCache ladders;
  core::HbsOptions options;
  options.measure_qfs = false;
  const auto result = core::hbs_transcode(page, web::serve_original(page),
                                          page.transfer_size() * 80 / 100, ladders, options);
  EXPECT_TRUE(result.served.media.empty());
}

}  // namespace
}  // namespace aw4a
