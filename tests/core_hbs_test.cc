#include "core/hbs.h"

#include <gtest/gtest.h>

#include "dataset/corpus.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

web::WebPage rich_page(std::uint64_t seed = 30, double mb = 1.8) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(mb), gen.global_profile());
}

TEST(Muzeel, ApplyShrinksScriptBytes) {
  const web::WebPage page = rich_page();
  web::ServedPage served = web::serve_original(page);
  const Bytes before = served.transfer_size();
  const Bytes saved = apply_muzeel(served);
  EXPECT_GT(saved, 0u);
  // Only scripts shrink, so the page total drops by exactly the saving.
  EXPECT_EQ(served.transfer_size(), before - saved);
  // Every script now has an explicit live set.
  for (const auto& o : page.objects) {
    if (o.type == web::ObjectType::kJs && o.script != nullptr) {
      EXPECT_TRUE(served.scripts.count(o.id));
    }
  }
}

TEST(Hbs, MildTargetMetByJsAloneKeepsImagesIntact) {
  const web::WebPage page = rich_page(31);
  // Target just below what Muzeel alone achieves.
  web::ServedPage probe = web::serve_original(page);
  apply_muzeel(probe);
  const Bytes muzeel_size = probe.transfer_size();
  if (muzeel_size >= page.transfer_size()) GTEST_SKIP();

  LadderCache ladders;
  const auto result = hbs_transcode(page, web::serve_original(page), muzeel_size, ladders);
  EXPECT_TRUE(result.met_target);
  EXPECT_LE(result.result_bytes, muzeel_size);
}

TEST(Hbs, ChoosesApproachBWhenImagesAloneSuffice) {
  // For mild targets both approaches succeed; B (images only, QFS = 1) wins
  // unless A somehow scores higher — overall the winner's quality dominates.
  const web::WebPage page = rich_page(32);
  LadderCache ladders;
  const Bytes target = page.transfer_size() * 90 / 100;
  const auto result = hbs_transcode(page, web::serve_original(page), target, ladders);
  EXPECT_TRUE(result.met_target);
  EXPECT_GE(result.quality.quality, 0.9);
  EXPECT_TRUE(result.algorithm == "hbs/rbr" || result.algorithm == "hbs/muzeel+rbr");
}

TEST(Hbs, DeepTargetUsesBothStagesAndReportsQuality) {
  const web::WebPage page = rich_page(33, 2.4);
  LadderCache ladders;
  const Bytes target = page.transfer_size() * 55 / 100;
  const auto result = hbs_transcode(page, web::serve_original(page), target, ladders);
  EXPECT_LE(result.quality.qss, 1.0);
  EXPECT_GE(result.quality.qss, 0.9 - 1e-9);  // Qt floor holds regardless
  EXPECT_GT(result.result_bytes, 0u);
  EXPECT_GT(result.elapsed_seconds, 0.0);
  if (result.met_target) {
    EXPECT_LE(result.result_bytes, target);
  }
}

TEST(Hbs, InfeasibleTargetReturnsSmallerOfTheTwo) {
  const web::WebPage page = rich_page(34);
  LadderCache ladders;
  const auto result = hbs_transcode(page, web::serve_original(page), 1, ladders);
  EXPECT_FALSE(result.met_target);
  EXPECT_LT(result.result_bytes, page.transfer_size());
}

TEST(Hbs, RespectsBaseDecisions) {
  // Decisions made before HBS (e.g. Stage-1 drops) survive in the result.
  const web::WebPage page = rich_page(35);
  web::ServedPage base = web::serve_original(page);
  const web::WebObject* css = nullptr;
  for (const auto& o : page.objects) {
    if (o.type == web::ObjectType::kCss) {
      css = &o;
      break;
    }
  }
  ASSERT_NE(css, nullptr);
  base.dropped.insert(css->id);
  LadderCache ladders;
  const auto result =
      hbs_transcode(page, std::move(base), page.transfer_size() * 80 / 100, ladders);
  EXPECT_TRUE(result.served.is_dropped(css->id));
}

TEST(Hbs, ReductionFactorConsistent) {
  const web::WebPage page = rich_page(36);
  LadderCache ladders;
  const auto result =
      hbs_transcode(page, web::serve_original(page), page.transfer_size() * 70 / 100, ladders);
  EXPECT_NEAR(result.reduction_factor(),
              static_cast<double>(page.transfer_size()) /
                  static_cast<double>(result.result_bytes),
              1e-9);
}

}  // namespace
}  // namespace aw4a::core
