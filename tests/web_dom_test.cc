#include "web/dom.h"

#include <gtest/gtest.h>

#include "dataset/corpus.h"
#include "util/rng.h"

namespace aw4a::web {
namespace {

DomNode p(int chars) {
  DomNode node;
  node.tag = Tag::kP;
  node.text_chars = chars;
  return node;
}

DomNode img(std::uint64_t id) {
  DomNode node;
  node.tag = Tag::kImg;
  node.object_id = id;
  return node;
}

TEST(Dom, TagNames) { EXPECT_STREQ(to_string(Tag::kArticle), "article"); }

TEST(Layout, VerticalStackingNoSiblingOverlap) {
  DomNode body;
  body.tag = Tag::kBody;
  for (int i = 0; i < 4; ++i) body.children.push_back(p(300));
  const LayoutResult result = layout_dom(body);
  ASSERT_EQ(result.blocks.size(), 4u);
  for (std::size_t i = 1; i < result.blocks.size(); ++i) {
    const Rect& prev = result.blocks[i - 1].rect;
    const Rect& cur = result.blocks[i].rect;
    EXPECT_GE(cur.y, prev.y + prev.h) << "siblings overlap";
  }
  EXPECT_GE(result.page_height,
            result.blocks.back().rect.y + result.blocks.back().rect.h);
}

TEST(Layout, ContainersIndentByPadding) {
  DomNode body;
  body.tag = Tag::kBody;
  DomNode section;
  section.tag = Tag::kSection;
  section.children.push_back(p(100));
  body.children.push_back(std::move(section));
  const LayoutResult result = layout_dom(body);
  ASSERT_EQ(result.blocks.size(), 1u);
  // body pads once, section pads again.
  EXPECT_EQ(result.blocks[0].rect.x, 2 * kLayoutPadding);
  EXPECT_EQ(result.blocks[0].rect.w, LayoutOptions{}.viewport_w - 4 * kLayoutPadding);
}

TEST(Layout, RowSplitsWidthAmongChildren) {
  DomNode body;
  body.tag = Tag::kBody;
  DomNode row;
  row.tag = Tag::kRow;
  for (int i = 0; i < 3; ++i) row.children.push_back(p(100));
  body.children.push_back(std::move(row));
  const LayoutResult result = layout_dom(body);
  ASSERT_EQ(result.blocks.size(), 3u);
  // Same y, increasing x, widths fit inside the viewport.
  EXPECT_EQ(result.blocks[0].rect.y, result.blocks[1].rect.y);
  EXPECT_LT(result.blocks[0].rect.x, result.blocks[1].rect.x);
  EXPECT_LT(result.blocks[1].rect.x, result.blocks[2].rect.x);
  const Rect& last = result.blocks[2].rect;
  EXPECT_LE(last.x + last.w, LayoutOptions{}.viewport_w);
  // No horizontal overlap.
  EXPECT_LE(result.blocks[0].rect.x + result.blocks[0].rect.w, result.blocks[1].rect.x);
}

TEST(Layout, NarrowColumnsWrapTaller) {
  // The same paragraph in a 3-cell row must be taller than at full width.
  DomNode full;
  full.tag = Tag::kBody;
  full.children.push_back(p(500));
  const int full_height = layout_dom(full).blocks[0].rect.h;

  DomNode rowed;
  rowed.tag = Tag::kBody;
  DomNode row;
  row.tag = Tag::kRow;
  row.children.push_back(p(500));
  row.children.push_back(p(500));
  row.children.push_back(p(500));
  rowed.children.push_back(std::move(row));
  const int cell_height = layout_dom(rowed).blocks[0].rect.h;
  EXPECT_GT(cell_height, full_height * 2);
}

TEST(Layout, ImagesClampToContentWidthPreservingAspect) {
  DomNode body;
  body.tag = Tag::kBody;
  body.children.push_back(img(7));
  const ImageDims dims = [](std::uint64_t) { return std::make_pair(1000, 500); };
  const LayoutResult result = layout_dom(body, {}, dims);
  ASSERT_EQ(result.blocks.size(), 1u);
  const Rect& r = result.blocks[0].rect;
  EXPECT_LE(r.w, LayoutOptions{}.viewport_w);
  EXPECT_NEAR(static_cast<double>(r.w) / r.h, 2.0, 0.1);  // 1000:500 aspect kept
  EXPECT_EQ(result.blocks[0].object_id, 7u);
}

TEST(Layout, WidgetAndAdBlocksCarryIdentity) {
  DomNode body;
  body.tag = Tag::kBody;
  DomNode w;
  w.tag = Tag::kWidget;
  w.widget = 42;
  body.children.push_back(std::move(w));
  DomNode ad;
  ad.tag = Tag::kAdSlot;
  ad.object_id = 9;
  body.children.push_back(std::move(ad));
  const LayoutResult result = layout_dom(body);
  ASSERT_EQ(result.blocks.size(), 2u);
  EXPECT_EQ(result.blocks[0].kind, LayoutBlock::Kind::kWidget);
  EXPECT_EQ(result.blocks[0].widget, 42u);
  EXPECT_EQ(result.blocks[1].kind, LayoutBlock::Kind::kAdSlot);
  EXPECT_EQ(result.blocks[1].object_id, 9u);
}

TEST(Layout, DeterministicForSameTree) {
  DomNode body;
  body.tag = Tag::kBody;
  for (int i = 0; i < 5; ++i) body.children.push_back(p(100 + 40 * i));
  const auto a = layout_dom(body);
  const auto b = layout_dom(body);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].rect.y, b.blocks[i].rect.y);
    EXPECT_EQ(a.blocks[i].rect.h, b.blocks[i].rect.h);
  }
}

TEST(Layout, CorpusPagesLayOutInsideViewport) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 140, .rich = true});
  Rng rng(140);
  const WebPage page = gen.make_page(rng, from_mb(1.8), gen.global_profile());
  EXPECT_FALSE(page.layout.empty());
  int max_bottom = 0;
  for (const LayoutBlock& block : page.layout) {
    EXPECT_GE(block.rect.x, 0);
    EXPECT_LE(block.rect.x + block.rect.w, page.viewport_w);
    EXPECT_GE(block.rect.y, 0);
    EXPECT_GT(block.rect.w, 0);
    EXPECT_GT(block.rect.h, 0);
    max_bottom = std::max(max_bottom, block.rect.y + block.rect.h);
  }
  EXPECT_LE(max_bottom, page.page_height);
  // Every image object appears exactly once in the paint list.
  std::size_t image_blocks = 0;
  for (const LayoutBlock& block : page.layout) {
    if (block.kind == LayoutBlock::Kind::kImage) ++image_blocks;
  }
  EXPECT_EQ(image_blocks, page.count(ObjectType::kImage));
}

}  // namespace
}  // namespace aw4a::web
