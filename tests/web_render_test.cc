#include "web/render.h"

#include <gtest/gtest.h>

#include "dataset/corpus.h"
#include "imaging/ssim.h"
#include "util/rng.h"
#include "web/bot.h"

namespace aw4a::web {
namespace {

WebPage rich_page(std::uint64_t seed = 3) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(1.5), gen.global_profile());
}

TEST(Render, CanvasMatchesViewportAndScale) {
  const WebPage page = rich_page();
  const ServedPage served = serve_original(page);
  const auto shot = render_page(served);
  EXPECT_EQ(shot.width(), page.viewport_w / 2);
  EXPECT_EQ(shot.height(), page.page_height / 2);
}

TEST(Render, DeterministicForSameInputs) {
  const WebPage page = rich_page();
  const ServedPage served = serve_original(page);
  const auto a = render_page(served);
  const auto b = render_page(served);
  EXPECT_TRUE(a.pixels() == b.pixels());
}

TEST(Render, DroppingImagesChangesScreenshot) {
  const WebPage page = rich_page();
  ServedPage served = serve_original(page);
  for (const auto& o : page.objects) {
    if (o.type == ObjectType::kImage) served.dropped.insert(o.id);
  }
  const auto original = render_page(serve_original(page));
  const auto stripped = render_page(served);
  EXPECT_LT(imaging::ssim(original, stripped), 0.99);
}

TEST(Render, DroppingCssCollapsesLayout) {
  const WebPage page = rich_page();
  ServedPage served = serve_original(page);
  for (const auto& o : page.objects) {
    if (o.type == ObjectType::kCss) served.dropped.insert(o.id);
  }
  const auto styled = render_page(serve_original(page));
  const auto unstyled = render_page(served);
  EXPECT_LT(imaging::ssim(styled, unstyled), 0.95);
}

TEST(Render, DroppingFontsShiftsTextSlightly) {
  const WebPage page = rich_page();
  ServedPage served = serve_original(page);
  for (const auto& o : page.objects) {
    if (o.type == ObjectType::kFont) served.dropped.insert(o.id);
  }
  const auto with_fonts = render_page(serve_original(page));
  const auto without = render_page(served);
  const double s = imaging::ssim(with_fonts, without);
  EXPECT_LT(s, 1.0);   // visible
  EXPECT_GT(s, 0.55);  // but not catastrophic
}

TEST(Render, WidgetFunctionalityTracksScripts) {
  const WebPage page = rich_page(8);
  const ServedPage original = serve_original(page);
  // Find a widget block.
  const LayoutBlock* widget_block = nullptr;
  for (const auto& b : page.layout) {
    if (b.kind == LayoutBlock::Kind::kWidget) {
      widget_block = &b;
      break;
    }
  }
  ASSERT_NE(widget_block, nullptr) << "page has no widgets; change the seed";
  EXPECT_TRUE(widget_functional(original, widget_block->widget));

  // Drop every script: all widgets die.
  ServedPage no_js = serve_original(page);
  for (const auto& o : page.objects) {
    if (o.type == ObjectType::kJs) no_js.dropped.insert(o.id);
  }
  EXPECT_FALSE(widget_functional(no_js, widget_block->widget));
  const auto alive = render_page(original);
  const auto dead = render_page(no_js);
  EXPECT_LT(imaging::ssim(alive, dead), 1.0);
}

TEST(Render, ToggledWidgetChangesPixels) {
  const WebPage page = rich_page(8);
  const ServedPage served = serve_original(page);
  const LayoutBlock* widget_block = nullptr;
  for (const auto& b : page.layout) {
    if (b.kind == LayoutBlock::Kind::kWidget) {
      widget_block = &b;
      break;
    }
  }
  ASSERT_NE(widget_block, nullptr);
  RenderState toggled;
  toggled.toggled.insert(widget_block->widget);
  const auto before = render_page(served);
  const auto after = render_page(served, toggled);
  EXPECT_FALSE(before.pixels() == after.pixels());
}

TEST(Bot, EnumeratesEventsOfRichPage) {
  const WebPage page = rich_page(9);
  const auto events = enumerate_events(page);
  EXPECT_FALSE(events.empty());
  for (const auto& e : events) {
    const WebObject* o = page.find(e.script_object_id);
    ASSERT_NE(o, nullptr);
    EXPECT_NE(o->script, nullptr);
  }
}

TEST(Bot, DroppedScriptProducesNoStateChange) {
  const WebPage page = rich_page(9);
  const auto events = enumerate_events(page);
  ASSERT_FALSE(events.empty());
  ServedPage served = serve_original(page);
  served.dropped.insert(events.front().script_object_id);
  const RenderState state = state_after_event(served, events.front());
  EXPECT_TRUE(state.toggled.empty());
}

TEST(Bot, OriginalPageEventsReachWidgets) {
  // Across several seeds, at least one event toggles at least one widget.
  bool any = false;
  for (std::uint64_t seed = 3; seed < 10 && !any; ++seed) {
    const WebPage page = rich_page(seed);
    const ServedPage served = serve_original(page);
    for (const auto& event : enumerate_events(page)) {
      if (!state_after_event(served, event).toggled.empty()) {
        any = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any);
}

}  // namespace
}  // namespace aw4a::web
