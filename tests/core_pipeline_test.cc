#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "dataset/corpus.h"
#include "serving/asset_store.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

web::WebPage rich_page(std::uint64_t seed = 40, double mb = 1.6) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(mb), gen.global_profile());
}

TEST(Pipeline, Stage1AloneForMildTargets) {
  const web::WebPage page = rich_page();
  const Aw4aPipeline pipeline;
  // A target Stage-1 can reach by itself (just under the original).
  const Bytes target = page.transfer_size() * 97 / 100;
  const auto result = pipeline.transcode_to_target(page, target);
  EXPECT_TRUE(result.met_target);
  EXPECT_EQ(result.algorithm, "stage1");
  EXPECT_DOUBLE_EQ(result.quality.qfs, 1.0);
}

TEST(Pipeline, Stage2EngagesForDeepTargets) {
  const web::WebPage page = rich_page();
  const Aw4aPipeline pipeline;
  const Bytes target = page.transfer_size() * 60 / 100;
  const auto result = pipeline.transcode_to_target(page, target);
  EXPECT_NE(result.algorithm.find("hbs"), std::string::npos);
  if (result.met_target) {
    EXPECT_LE(result.result_bytes, target);
  }
}

TEST(Pipeline, GridSearchBackendSelectable) {
  const web::WebPage page = rich_page(41, 0.8);
  DeveloperConfig config;
  config.stage2 = DeveloperConfig::Stage2::kGridSearch;
  config.grid_timeout_seconds = 10.0;
  const Aw4aPipeline pipeline(config);
  // Deep enough that Stage-1 alone cannot satisfy it.
  const Bytes target = page.transfer_size() * 55 / 100;
  const auto result = pipeline.transcode_to_target(page, target);
  EXPECT_NE(result.algorithm.find("grid-search"), std::string::npos);
}

TEST(Pipeline, QualityThresholdFlowsThrough) {
  const web::WebPage page = rich_page(42);
  DeveloperConfig config;
  config.min_image_ssim = 0.95;
  const Aw4aPipeline pipeline(config);
  const auto result = pipeline.transcode_to_target(page, page.transfer_size() / 2);
  EXPECT_GE(result.quality.qss, 0.95 - 1e-6);
}

TEST(Pipeline, AffordableCountryGetsNoReductionTarget) {
  const web::WebPage page = rich_page(44);
  const dataset::Country* usa = dataset::find_country("United States");
  ASSERT_NE(usa, nullptr);
  const Bytes target =
      per_url_target(page.transfer_size(), paw_index(*usa, net::PlanType::kDataOnly));
  const Aw4aPipeline pipeline;
  const auto result = pipeline.transcode_to_target(page, target);
  EXPECT_TRUE(result.met_target);
  EXPECT_EQ(result.target_bytes, page.transfer_size());
}

TEST(Pipeline, BuildTiersCoversConfiguredReductions) {
  const web::WebPage page = rich_page(45);
  DeveloperConfig config;
  config.tier_reductions = {1.25, 1.5, 3.0};
  config.measure_qfs = false;  // keep the test fast
  const Aw4aPipeline pipeline(config);
  const auto tiers = pipeline.build_tiers(page);
  ASSERT_EQ(tiers.size(), 3u);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_DOUBLE_EQ(tiers[i].requested_reduction, config.tier_reductions[i]);
    if (tiers[i].result.met_target) {
      EXPECT_GE(tiers[i].achieved_reduction() + 1e-9, tiers[i].requested_reduction);
      EXPECT_GT(tiers[i].savings_fraction(), 0.0);
    }
  }
  // Tiers get progressively smaller (or equal when infeasible).
  EXPECT_LE(tiers[2].result.result_bytes, tiers[0].result.result_bytes);
}

TEST(Pipeline, RejectsBadConfig) {
  DeveloperConfig config;
  config.min_image_ssim = 1.5;
  EXPECT_THROW(Aw4aPipeline{config}, LogicError);
}

// --- Cold-build fast path: shared cross-tier ladders + parallel prewarm
// must reproduce the seed per-tier behavior bit for bit. ---

TEST(Pipeline, SharedLadderCacheMatchesPerTierBuilds) {
  const web::WebPage page = rich_page(46, 0.9);
  DeveloperConfig config;
  config.tier_reductions = {1.25, 1.5, 3.0, 6.0};
  config.measure_qfs = false;
  const Aw4aPipeline pipeline(config);
  const Bytes original = page.transfer_size();

  // Seed behavior: a fresh cache per tier (the public single-shot API).
  std::vector<TranscodeResult> fresh;
  for (const double reduction : config.tier_reductions) {
    const Bytes target = static_cast<Bytes>(static_cast<double>(original) / reduction);
    fresh.push_back(pipeline.transcode_to_target(page, target));
  }

  // Fast path: one cache threaded through every tier.
  LadderCache ladders(pipeline.ladder_options());
  std::vector<TranscodeResult> cached;
  for (const double reduction : config.tier_reductions) {
    const Bytes target = static_cast<Bytes>(static_cast<double>(original) / reduction);
    cached.push_back(pipeline.transcode_to_target(page, target, ladders));
  }

  ASSERT_EQ(fresh.size(), cached.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(cached[i].result_bytes, fresh[i].result_bytes) << "tier " << i;
    EXPECT_DOUBLE_EQ(cached[i].quality.qss, fresh[i].quality.qss) << "tier " << i;
    EXPECT_EQ(cached[i].algorithm, fresh[i].algorithm) << "tier " << i;
    EXPECT_EQ(cached[i].met_target, fresh[i].met_target) << "tier " << i;
  }
}

TEST(Pipeline, BuildTiersWithPrewarmMatchesSerialBuild) {
  // build_tiers enumerates lazily; a cache warmed up front on 4 threads,
  // then solved tier by tier, must produce the same tiers bit for bit.
  const web::WebPage page = rich_page(47, 0.9);
  DeveloperConfig config;
  config.tier_reductions = {1.5, 3.0, 6.0};
  config.measure_qfs = false;
  const Aw4aPipeline pipeline(config);
  const auto serial = pipeline.build_tiers(page);

  LadderCache ladders(pipeline.ladder_options());
  ladders.prewarm(page, 4);
  const Bytes original = page.transfer_size();
  ASSERT_EQ(serial.size(), config.tier_reductions.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const Bytes target =
        static_cast<Bytes>(static_cast<double>(original) / config.tier_reductions[i]);
    const TranscodeResult prewarmed = pipeline.transcode_to_target(page, target, ladders);
    EXPECT_TRUE(serial[i].built) << "tier " << i;
    EXPECT_EQ(prewarmed.result_bytes, serial[i].result.result_bytes) << "tier " << i;
    EXPECT_DOUBLE_EQ(prewarmed.quality.qss, serial[i].result.quality.qss) << "tier " << i;
    EXPECT_EQ(prewarmed.algorithm, serial[i].result.algorithm) << "tier " << i;
    EXPECT_EQ(prewarmed.met_target, serial[i].result.met_target) << "tier " << i;
  }
}

TEST(Pipeline, SharedCacheRejectsMismatchedOptions) {
  const web::WebPage page = rich_page(48, 0.4);
  DeveloperConfig strict;
  strict.min_image_ssim = 0.95;
  DeveloperConfig lax;
  lax.min_image_ssim = 0.7;
  const Aw4aPipeline pipeline(strict);
  LadderCache mismatched(Aw4aPipeline(lax).ladder_options());
  EXPECT_THROW((void)pipeline.transcode_to_target(page, page.transfer_size() / 2, mismatched),
               LogicError);
}

// An asset store that keeps every memo it hands out, so a test can inspect
// what a served build enumerated.
class RecordingAssetStore : public imaging::AssetLadderSource {
 public:
  std::shared_ptr<const imaging::VariantMemo> acquire(
      const std::shared_ptr<const imaging::SourceImage>& asset,
      const imaging::LadderOptions& options, const obs::RequestContext& ctx) override {
    auto memo = store_.acquire(asset, options, ctx);
    if (memo) memos.push_back(memo);
    return memo;
  }

  std::vector<std::shared_ptr<const imaging::VariantMemo>> memos;

 private:
  serving::AssetStore store_;
};

// Checks every set family of `memo`: a rung with ssim + 1e-12 < qt may only
// be the last. Returns how many such sentinel rungs it saw.
std::size_t expect_families_stop_at(const imaging::VariantMemo& memo, double qt) {
  std::size_t sentinels = 0;
  for (std::size_t f = 0; f < 3; ++f) {
    for (const auto* family : {&memo.res_family[f], &memo.qual_family[f]}) {
      if (!family->has_value()) continue;
      const auto& rungs = **family;
      for (std::size_t i = 0; i < rungs.size(); ++i) {
        if (rungs[i].ssim + 1e-12 >= qt) continue;
        ++sentinels;
        EXPECT_EQ(i + 1, rungs.size()) << "format " << f << ": rung " << i << " (ssim "
                                       << rungs[i].ssim << ") is below Qt " << qt;
      }
    }
  }
  return sentinels;
}

TEST(Pipeline, LadderStopsAtTheFirstRungBelowQt) {
  // Every solver breaks on the first rung below Qt, so a family enumerates
  // down to that rung and no further: at most one rung below Qt, and last.
  const web::WebPage page = rich_page(49, 0.9);
  for (const double qt : {0.9, 0.8}) {
    SCOPED_TRACE("Qt " + std::to_string(qt));
    DeveloperConfig config;
    config.min_image_ssim = qt;
    config.measure_qfs = false;
    const Aw4aPipeline hbs(config);
    EXPECT_EQ(hbs.ladder_options().min_ssim, qt);

    // A served build: the asset store memoizes the families HBS reads.
    RecordingAssetStore store;
    (void)hbs.build_tiers(page, obs::RequestContext::none(), &store);
    ASSERT_FALSE(store.memos.empty());
    std::size_t sentinels = 0;
    for (const auto& memo : store.memos) sentinels += expect_families_stop_at(*memo, qt);
    EXPECT_GT(sentinels, 0u) << "no family reached below Qt";

    // Grid Search fills the quality families too.
    config.stage2 = DeveloperConfig::Stage2::kGridSearch;
    const Aw4aPipeline grid(config);
    LadderCache ladders(grid.ladder_options());
    (void)grid.transcode_to_target(page, page.transfer_size() / 3, ladders);
    for (const web::WebObject* object : rich_images(page)) {
      (void)expect_families_stop_at(ladders.ladder_for(*object).snapshot(), qt);
    }
  }
}

}  // namespace
}  // namespace aw4a::core
