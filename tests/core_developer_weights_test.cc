// Tests for the §5.4 developer API: per-object weights enter the objective
// (Eq. 3) and steer RBR away from prioritized objects.
#include <gtest/gtest.h>

#include "core/quality.h"
#include "core/rbr.h"
#include "dataset/corpus.h"
#include "js/muzeel.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

web::WebPage rich_page(std::uint64_t seed = 130) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(1.6), gen.global_profile());
}

TEST(DeveloperWeights, QssWeighsPrioritizedImagesHarder) {
  web::WebPage page = rich_page();
  const auto images = rich_images(page);
  ASSERT_GE(images.size(), 2u);
  // Degrade exactly one image to SSIM 0.5 and compare QSS with and without
  // a 4x priority on that image.
  const std::uint64_t victim = images[0]->id;
  web::ServedPage served = web::serve_original(page);
  imaging::ImageVariant v;
  v.ssim = 0.5;
  v.bytes = 100;
  served.images[victim] = web::ServedImage{.variant = v, .dropped = false};
  const double neutral = compute_qss(served);

  for (auto& o : page.objects) {
    if (o.id == victim) o.developer_weight = 4.0;
  }
  const double prioritized = compute_qss(served);
  // The same damage hurts more when the developer marked the image important.
  EXPECT_LT(prioritized, neutral);
}

TEST(DeveloperWeights, RbrReducesProtectedImagesLast) {
  web::WebPage page = rich_page(131);
  const auto images = rich_images(page);
  ASSERT_GE(images.size(), 3u);
  // Protect the first-ranked image heavily; it must drop in the ranking.
  LadderCache ladders;
  const auto before = reducibility_ranking(page, ladders);
  const std::uint64_t top = before.front().first;
  for (auto& o : page.objects) {
    if (o.id == top) o.developer_weight = 100.0;
  }
  const auto after = reducibility_ranking(page, ladders);
  EXPECT_NE(after.front().first, top);
  EXPECT_EQ(after.back().first, top);  // hero image now reduced last
}

TEST(DeveloperWeights, NeutralWeightChangesNothing) {
  const web::WebPage page = rich_page(132);
  LadderCache ladders;
  const auto a = reducibility_ranking(page, ladders);
  const auto b = reducibility_ranking(page, ladders);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_DOUBLE_EQ(a[i].second, b[i].second);
  }
}

TEST(DeveloperWeights, NonPositiveWeightRejected) {
  web::WebPage page = rich_page(133);
  for (auto& o : page.objects) o.developer_weight = 0.0;
  LadderCache ladders;
  EXPECT_THROW((void)reducibility_ranking(page, ladders), LogicError);
}

TEST(JsCoverage, ReportSumsAndClassifies) {
  Rng rng(7);
  js::ScriptSynthOptions options;
  options.target_bytes = 80 * kKB;
  options.dead_fraction = 0.5;
  options.dynamic_call_prob = 0.15;
  const js::Script script = js::synth_script(rng, options);
  const js::CoverageReport report = js::coverage(script);
  EXPECT_EQ(report.total_functions, script.functions.size());
  EXPECT_EQ(report.live_functions + report.dead_functions, report.total_functions);
  EXPECT_LE(report.risky_functions, report.dead_functions);
  EXPECT_EQ(report.total_bytes, script.total_bytes());
  EXPECT_LE(report.risky_bytes, report.dead_bytes);
  EXPECT_GT(report.dead_bytes, 0u);
  EXPECT_LT(report.dead_bytes, report.total_bytes);
  // Coverage agrees with Muzeel's actual removal.
  const auto muzeel = js::muzeel_eliminate(script);
  EXPECT_EQ(report.dead_bytes, muzeel.removed_bytes);
  EXPECT_EQ(report.risky_functions, muzeel.broken.size());
}

TEST(JsCoverage, FullyLiveScriptHasNoDeadBytes) {
  js::Script script;
  script.id = 1;
  js::JsFunction f;
  f.id = 1;
  f.bytes = 100;
  script.functions.push_back(f);
  script.init_functions = {1};
  const auto report = js::coverage(script);
  EXPECT_EQ(report.dead_functions, 0u);
  EXPECT_EQ(report.dead_bytes, 0u);
}

}  // namespace
}  // namespace aw4a::core
