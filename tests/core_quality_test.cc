#include "core/quality.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/hbs.h"
#include "core/objective.h"
#include "dataset/corpus.h"
#include "imaging/ssim.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

web::WebPage rich_page(std::uint64_t seed = 4) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(1.5), gen.global_profile());
}

TEST(Qss, OriginalPageScoresOne) {
  const web::WebPage page = rich_page();
  EXPECT_DOUBLE_EQ(compute_qss(web::serve_original(page)), 1.0);
}

TEST(Qss, DroppedImageScoresZeroWeightedByArea) {
  const web::WebPage page = rich_page();
  const auto images = rich_images(page);
  ASSERT_GE(images.size(), 2u);
  web::ServedPage served = web::serve_original(page);
  served.images[images[0]->id] = web::ServedImage{.variant = std::nullopt, .dropped = true};
  double total_area = 0;
  for (const auto* img : images) total_area += img->image->display_area();
  const double expected = 1.0 - images[0]->image->display_area() / total_area;
  EXPECT_NEAR(compute_qss(served), expected, 1e-9);
}

TEST(Qss, VariantSsimEntersAreaWeighted) {
  const web::WebPage page = rich_page();
  const auto images = rich_images(page);
  web::ServedPage served = web::serve_original(page);
  imaging::ImageVariant v;
  v.ssim = 0.8;
  v.bytes = 100;
  served.images[images[0]->id] = web::ServedImage{.variant = v, .dropped = false};
  double total_area = 0;
  for (const auto* img : images) total_area += img->image->display_area();
  const double expected =
      (total_area - 0.2 * images[0]->image->display_area()) / total_area;
  EXPECT_NEAR(compute_qss(served), expected, 1e-9);
}

TEST(Qss, PageWithoutImagesScoresOne) {
  web::WebPage page;
  page.id = 1;
  EXPECT_DOUBLE_EQ(compute_qss(web::serve_original(page)), 1.0);
}

TEST(Qfs, OriginalPageScoresOne) {
  const web::WebPage page = rich_page();
  EXPECT_DOUBLE_EQ(compute_qfs(web::serve_original(page)), 1.0);
}

TEST(Qfs, ImageOnlyReductionsScoreExactlyOne) {
  // Paper §7.2: approach B (RBR only) always has QFS = 1.
  const web::WebPage page = rich_page();
  web::ServedPage served = web::serve_original(page);
  for (const auto* img : rich_images(page)) {
    imaging::ImageVariant v;
    v.ssim = 0.5;
    v.bytes = 10;
    served.images[img->id] = web::ServedImage{.variant = v, .dropped = false};
  }
  EXPECT_DOUBLE_EQ(compute_qfs(served), 1.0);
}

TEST(Qfs, DroppingAllScriptsHurts) {
  // Find a seed whose page draws at least one JS-controlled widget; dropping
  // all scripts then visibly kills it (statically and per event).
  for (std::uint64_t seed = 4; seed < 12; ++seed) {
    const web::WebPage page = rich_page(seed);
    const bool has_widget_block =
        std::any_of(page.layout.begin(), page.layout.end(), [](const web::LayoutBlock& b) {
          return b.kind == web::LayoutBlock::Kind::kWidget;
        });
    if (!has_widget_block || web::enumerate_events(page).empty()) continue;
    web::ServedPage served = web::serve_original(page);
    for (const auto& o : page.objects) {
      if (o.type == web::ObjectType::kJs) served.dropped.insert(o.id);
    }
    EXPECT_LT(compute_qfs(served), 1.0) << "seed " << seed;
    return;
  }
  FAIL() << "no seed produced a page with widgets";
}

TEST(QfsCache, MemoMatchesOneShotAndKeysOnTheFunctionalView) {
  // One build's sequence of decisions on one cache: every score must equal a
  // fresh one-shot compute_qfs bit for bit, and only a repeated functional
  // view may be answered from the memo.
  const web::WebPage page = rich_page(6);
  ASSERT_FALSE(web::enumerate_events(page).empty());
  const web::ServedPage original = web::serve_original(page);
  web::ServedPage muzeel = original;
  apply_muzeel(muzeel);
  ASSERT_FALSE(muzeel.scripts.empty());
  web::ServedPage no_scripts = original;
  web::ServedPage text_only = original;
  for (const auto& o : page.objects) {
    if (o.type == web::ObjectType::kJs) no_scripts.dropped.insert(o.id);
    if (o.type == web::ObjectType::kMedia || o.type == web::ObjectType::kIframe) {
      text_only.dropped.insert(o.id);
    }
    if (o.type == web::ObjectType::kImage && o.is_ad) {
      text_only.images[o.id] = web::ServedImage{.variant = std::nullopt, .dropped = true};
    }
  }
  ASSERT_FALSE(text_only.dropped.empty());
  // Muzeel's view again, reached with different image decisions and script
  // byte counts: neither is visible to the bot, so it is the same view.
  web::ServedPage muzeel_again = muzeel;
  for (const auto* img : rich_images(page)) {
    imaging::ImageVariant v;
    v.ssim = 0.5;
    v.bytes = 10;
    muzeel_again.images[img->id] = web::ServedImage{.variant = v, .dropped = false};
  }
  for (auto& [id, script] : muzeel_again.scripts) script.transfer_bytes += 1;

  const std::pair<const web::ServedPage*, std::size_t> sequence[] = {
      {&original, 0}, {&muzeel, 1}, {&no_scripts, 2}, {&muzeel_again, 2}, {&text_only, 3}};
  QfsCache cache(page);
  for (const auto& [served, views_after] : sequence) {
    EXPECT_EQ(cache.score(*served), compute_qfs(*served));
    EXPECT_EQ(cache.views(), views_after);
  }
  EXPECT_LT(cache.score(no_scripts), cache.score(muzeel));

  // One more live function is a different view, never a memo hit.
  web::ServedPage one_more_live = muzeel;
  bool widened = false;
  for (const auto& o : page.objects) {
    if (widened || o.type != web::ObjectType::kJs || o.script == nullptr) continue;
    auto& live = one_more_live.scripts.at(o.id).live;
    for (const auto& f : o.script->functions) {
      if (live.insert(f.id).second) {
        widened = true;
        break;
      }
    }
  }
  ASSERT_TRUE(widened);
  EXPECT_EQ(cache.score(one_more_live), compute_qfs(one_more_live));
  EXPECT_EQ(cache.views(), 4u);

  // A cache belongs to one page.
  const web::WebPage other = rich_page(7);
  EXPECT_THROW((void)cache.score(web::serve_original(other)), LogicError);
  LadderCache ladders;
  QfsCache& memo = ladders.qfs(page);
  EXPECT_EQ(&ladders.qfs(page), &memo);
  EXPECT_THROW((void)ladders.qfs(other), LogicError);
}

/// QFS the long way: for every event, render both post-event screenshots,
/// take their SSIM, and average. No memo, no shortcut — the definition that
/// QfsCache must reproduce bit for bit.
double qfs_per_event_reference(const web::ServedPage& served) {
  const web::WebPage& page = *served.page;
  const std::vector<web::BotEvent> events = web::enumerate_events(page);
  if ((served.scripts.empty() && served.dropped.empty()) || events.empty()) return 1.0;
  const web::ServedPage original = web::serve_original(page);
  web::ServedPage view = original;
  view.scripts = served.scripts;
  view.dropped = served.dropped;
  double total = 0.0;
  for (const web::BotEvent& event : events) {
    const imaging::Raster shot_orig =
        web::render_page(original, web::state_after_event(original, event));
    const imaging::Raster shot_served =
        web::render_page(view, web::state_after_event(view, event));
    total += imaging::ssim(shot_orig, shot_served);
  }
  return total / static_cast<double>(events.size());
}

TEST(QfsCache, ScoresEqualPerEventReference) {
  // Random functional views over seeded rich pages: random drops among CSS,
  // fonts, ads, images and scripts, plus random script liveness. One cache
  // per page scores them all in sequence, as a build does.
  Rng rng(17);
  std::size_t scored = 0;
  for (std::uint64_t seed = 4; seed < 10; ++seed) {
    const web::WebPage page = rich_page(seed);
    if (web::enumerate_events(page).empty()) continue;
    QfsCache cache(page);
    for (int trial = 0; trial < 3; ++trial) {
      web::ServedPage served = web::serve_original(page);
      for (const auto& o : page.objects) {
        const bool droppable = o.type == web::ObjectType::kCss ||
                               o.type == web::ObjectType::kFont ||
                               o.type == web::ObjectType::kImage || o.is_ad;
        if (droppable && rng.bernoulli(0.3)) served.dropped.insert(o.id);
        if (o.type != web::ObjectType::kJs || o.script == nullptr) continue;
        if (rng.bernoulli(0.15)) {
          served.dropped.insert(o.id);
        } else if (rng.bernoulli(0.6)) {
          web::ServedScript script;
          script.dropped = rng.bernoulli(0.1);
          for (const auto& f : o.script->functions) {
            if (rng.bernoulli(0.7)) script.live.insert(f.id);
          }
          served.scripts[o.id] = std::move(script);
        }
      }
      EXPECT_EQ(cache.score(served), qfs_per_event_reference(served))
          << "seed " << seed << " trial " << trial;
      ++scored;
    }
  }
  EXPECT_GE(scored, 9u);
}

TEST(Quality, OverallWeightsNormalize) {
  EXPECT_DOUBLE_EQ(overall_quality(0.8, 0.6, {.qss = 1.0, .qfs = 1.0}), 0.7);
  EXPECT_DOUBLE_EQ(overall_quality(0.8, 0.6, {.qss = 1.0, .qfs = 0.0}), 0.8);
  EXPECT_DOUBLE_EQ(overall_quality(0.8, 0.6, {.qss = 3.0, .qfs = 1.0}), 0.75);
  EXPECT_THROW((void)overall_quality(1, 1, {.qss = 0.0, .qfs = 0.0}), LogicError);
}

TEST(Quality, EvaluateBundlesBoth) {
  const web::WebPage page = rich_page();
  const QualityReport r = evaluate_quality(web::serve_original(page));
  EXPECT_DOUBLE_EQ(r.qss, 1.0);
  EXPECT_DOUBLE_EQ(r.qfs, 1.0);
  EXPECT_DOUBLE_EQ(r.quality, 1.0);
  const QualityReport skip = evaluate_quality(web::serve_original(page), {}, false);
  EXPECT_DOUBLE_EQ(skip.qfs, 1.0);
}

TEST(Objective, LadderCacheMemoizes) {
  const web::WebPage page = rich_page();
  const auto images = rich_images(page);
  ASSERT_FALSE(images.empty());
  LadderCache cache;
  auto& a = cache.ladder_for(*images[0]);
  auto& b = cache.ladder_for(*images[0]);
  EXPECT_EQ(&a, &b);
  EXPECT_THROW((void)cache.ladder_for(page.objects[0]), LogicError);  // html object
}

}  // namespace
}  // namespace aw4a::core
