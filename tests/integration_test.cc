// End-to-end flows across modules: the scenarios a website operator and a
// user actually run through AW4A.
#include <gtest/gtest.h>

#include "baselines/weblight.h"
#include "core/api.h"
#include "dataset/corpus.h"
#include "util/rng.h"

namespace aw4a {
namespace {

TEST(Integration, OperatorWorkflowCountryTiersAndServing) {
  // 1. An operator takes a page, 2. computes PAW-driven targets for two
  // countries, 3. pre-builds tiers, 4. serves users per their profiles.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 70, .rich = true});
  Rng rng(70);
  const web::WebPage page = gen.make_page(rng, from_mb(2.0), gen.global_profile());

  core::DeveloperConfig config;
  config.tier_reductions = {1.5, 3.0};
  config.measure_qfs = false;
  const core::Aw4aPipeline pipeline(config);
  const auto tiers = pipeline.build_tiers(page);
  ASSERT_EQ(tiers.size(), 2u);

  core::UserProfile constrained;
  constrained.data_saving_on = true;
  constrained.country_sharing_on = true;
  constrained.plan = net::PlanType::kDataVoiceLowUsage;
  constrained.country = dataset::find_country("Ethiopia");
  ASSERT_NE(constrained.country, nullptr);
  const auto d1 = core::decide_version(constrained, tiers);
  EXPECT_EQ(d1.kind, core::ServeDecision::Kind::kPawTier);

  core::UserProfile privacy_minded;
  privacy_minded.data_saving_on = true;
  privacy_minded.country_sharing_on = false;
  privacy_minded.preferred_savings_pct = 60.0;
  const auto d2 = core::decide_version(privacy_minded, tiers);
  EXPECT_EQ(d2.kind, core::ServeDecision::Kind::kPreferenceTier);

  core::UserProfile unconstrained;
  unconstrained.data_saving_on = false;
  EXPECT_EQ(core::decide_version(unconstrained, tiers).kind,
            core::ServeDecision::Kind::kOriginal);
}

TEST(Integration, PawReductionActuallyEqualizesAccesses) {
  // Reduce a failing country's pages by PAW with the real pipeline and check
  // the *measured* result restores the target access count.
  const dataset::Country* country = dataset::find_country("Lebanon");
  ASSERT_NE(country, nullptr);
  const double paw = core::paw_index(*country, net::PlanType::kDataVoiceLowUsage);
  ASSERT_GT(paw, 1.0);

  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 71, .rich = true});
  const auto pages = gen.country_pages(*country, 6);
  core::DeveloperConfig config;
  config.min_image_ssim = 0.8;
  config.measure_qfs = false;
  const core::Aw4aPipeline pipeline(config);

  double reduced_total = 0;
  double original_total = 0;
  for (const auto& page : pages) {
    const auto result =
        pipeline.transcode_to_target(page, core::per_url_target(page.transfer_size(), paw));
    reduced_total += static_cast<double>(result.result_bytes);
    original_total += static_cast<double>(page.transfer_size());
  }
  // Achieved average reduction approaches PAW (some pages miss under the
  // quality constraint, so allow under-achievement but demand real movement).
  const double achieved = original_total / reduced_total;
  EXPECT_GT(achieved, 1.0 + (paw - 1.0) * 0.4);
}

TEST(Integration, Aw4aBeatsWebLightOnQualityAtComparableSize) {
  // The paper's central contrast: existing services hit extreme reductions
  // by destroying quality; AW4A maximizes quality at a byte budget.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 72, .rich = true});
  Rng rng(72);
  const web::WebPage page = gen.make_page(rng, from_mb(2.2), gen.global_profile());

  const auto weblight = baselines::weblight_transcode(page);
  const auto weblight_quality = core::evaluate_quality(weblight.served);

  core::DeveloperConfig config;
  config.min_image_ssim = 0.8;
  const core::Aw4aPipeline pipeline(config);
  const auto aw4a = pipeline.transcode_to_target(page, weblight.result_bytes);
  // At Web Light's own size, AW4A keeps (weakly) more quality; when the
  // quality constraint binds first, AW4A trades the last bytes for quality.
  if (aw4a.met_target) {
    EXPECT_GE(aw4a.quality.quality + 1e-9, weblight_quality.quality);
  } else {
    EXPECT_GT(aw4a.quality.quality, weblight_quality.quality);
  }
}

TEST(Integration, CacheAndTranscodingCompose) {
  // Transcoded pages also cache; the cached cost of a reduced page is below
  // the cached cost of the original.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 73, .rich = true});
  Rng rng(73);
  const web::WebPage page = gen.make_page(rng, from_mb(1.8), gen.global_profile());
  core::DeveloperConfig config;
  config.measure_qfs = false;
  const core::Aw4aPipeline pipeline(config);
  const auto result = pipeline.transcode_to_target(page, page.transfer_size() * 2 / 3);

  const net::VisitSchedule schedule{};
  auto cached_cost = [&](auto size_of_object) {
    std::vector<net::CacheItem> items;
    for (const auto& o : page.objects) {
      net::CacheItem item = web::to_cache_item(o);
      item.transfer_bytes = size_of_object(o);
      items.push_back(item);
    }
    return net::simulate_infinite_cache(items, schedule).avg_bytes_per_visit;
  };
  const double cached_original =
      cached_cost([](const web::WebObject& o) { return o.transfer_bytes; });
  const double cached_reduced = cached_cost(
      [&](const web::WebObject& o) { return result.served.object_transfer(o); });
  EXPECT_LT(cached_reduced, cached_original);
}

TEST(Integration, DeterministicEndToEnd) {
  // The same seed reproduces identical transcoding decisions and bytes.
  auto run = [] {
    dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 74, .rich = true});
    Rng rng(74);
    const web::WebPage page = gen.make_page(rng, from_mb(1.5), gen.global_profile());
    core::DeveloperConfig config;
    config.measure_qfs = false;
    const core::Aw4aPipeline pipeline(config);
    return pipeline.transcode_to_target(page, page.transfer_size() * 7 / 10).result_bytes;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace aw4a
