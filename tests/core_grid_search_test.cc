#include "core/grid_search.h"

#include <gtest/gtest.h>

#include "core/rbr.h"
#include "dataset/corpus.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

// A compact rich page keeps the exhaustive search fast.
web::WebPage small_rich_page(std::uint64_t seed = 20) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  for (int attempt = 0; attempt < 40; ++attempt) {
    web::WebPage page = gen.make_page(rng, from_mb(0.9), gen.global_profile());
    const auto n = rich_images(page).size();
    if (n >= 2 && n <= 8) return page;
  }
  ADD_FAILURE() << "could not build a small page";
  return web::WebPage{};
}

TEST(GridSearch, TrivialTargetKeepsFullQuality) {
  const web::WebPage page = small_rich_page();
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  const auto outcome = grid_search(served, page.transfer_size(), ladders);
  EXPECT_TRUE(outcome.met_target);
  // QSS stays at 1.0; bytes may still *shrink* (ties broken toward fewer
  // bytes, e.g. a lossless WebP transcode of a PNG has SSIM exactly 1).
  EXPECT_DOUBLE_EQ(outcome.qss, 1.0);
  EXPECT_LE(served.transfer_size(), page.transfer_size());
}

TEST(GridSearch, MeetsTargetWithinThreshold) {
  const web::WebPage page = small_rich_page();
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  const Bytes target = page.transfer_size() * 80 / 100;
  const auto outcome = grid_search(served, target, ladders);
  EXPECT_TRUE(outcome.met_target);
  EXPECT_LE(served.transfer_size(), target);
  EXPECT_GE(outcome.qss, 0.9 - 1e-9);
  for (const auto& [id, decision] : served.images) {
    if (decision.variant) {
      EXPECT_GE(decision.variant->ssim, 0.9 - 1e-9);
    }
  }
}

TEST(GridSearch, CloseToRbrOnFeasibleTargets) {
  // The two solvers search *different* spaces (Grid Search: quality ladders
  // at full resolution, §7.1; RBR: resolution ladders), so either can win by
  // a little — the paper measures an average gap of -0.76% with RBR ahead in
  // 18% of runs. Assert the gap stays small in both directions.
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const web::WebPage page = small_rich_page(seed);
    if (page.objects.empty()) continue;
    LadderCache ladders;
    const Bytes target = page.transfer_size() * 82 / 100;

    web::ServedPage rbr_served = web::serve_original(page);
    const auto rbr = rank_based_reduce(rbr_served, target, ladders);

    web::ServedPage gs_served = web::serve_original(page);
    GridSearchOptions options;
    options.timeout_seconds = 20.0;
    const auto gs = grid_search(gs_served, target, ladders, options);

    if (rbr.met_target && gs.met_target && !gs.timed_out) {
      const double rbr_qss = compute_qss(rbr_served);
      EXPECT_NEAR(gs.qss, rbr_qss, 0.08) << "seed " << seed;
      EXPECT_GE(gs.qss, 0.9 - 1e-9);
      EXPECT_GE(rbr_qss, 0.9 - 1e-9);
    }
  }
}

TEST(GridSearch, InfeasibleTargetFallsBackToSmallest) {
  const web::WebPage page = small_rich_page();
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  const auto outcome = grid_search(served, 1, ladders);
  EXPECT_FALSE(outcome.met_target);
  // Fallback picked byte-minimal variants: smaller than the original page.
  EXPECT_LT(outcome.bytes_after, page.transfer_size());
}

TEST(GridSearch, TightTimeoutReportsTimedOut) {
  const web::WebPage page = small_rich_page(23);
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  // Pre-warm ladders so the timeout applies to the search itself.
  for (const auto* img : rich_images(page)) {
    (void)ladders.ladder_for(*img).cheapest_fullres_with_ssim_at_least(0.9);
  }
  GridSearchOptions options;
  options.timeout_seconds = 1e-9;
  const auto outcome = grid_search(served, page.transfer_size() / 2, ladders, options);
  EXPECT_TRUE(outcome.timed_out);
}

TEST(GridSearch, MoreLevelsNeverHurtQss) {
  const web::WebPage page = small_rich_page(24);
  LadderCache ladders;
  const Bytes target = page.transfer_size() * 85 / 100;
  auto run = [&](int levels) {
    web::ServedPage served = web::serve_original(page);
    GridSearchOptions options;
    options.levels = levels;
    options.timeout_seconds = 20.0;
    return grid_search(served, target, ladders, options);
  };
  const auto coarse = run(3);
  const auto fine = run(11);
  if (coarse.met_target && fine.met_target) {
    EXPECT_GE(fine.qss + 1e-9, coarse.qss);
  }
}

TEST(GridSearch, RejectsBadOptions) {
  const web::WebPage page = small_rich_page();
  web::ServedPage served = web::serve_original(page);
  LadderCache ladders;
  GridSearchOptions bad;
  bad.levels = 1;
  EXPECT_THROW((void)grid_search(served, 1000, ladders, bad), LogicError);
}

}  // namespace
}  // namespace aw4a::core
