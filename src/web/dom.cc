#include "web/dom.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace aw4a::web {

const char* to_string(Tag tag) {
  switch (tag) {
    case Tag::kBody: return "body";
    case Tag::kHeader: return "header";
    case Tag::kNav: return "nav";
    case Tag::kMain: return "main";
    case Tag::kSection: return "section";
    case Tag::kArticle: return "article";
    case Tag::kFooter: return "footer";
    case Tag::kDiv: return "div";
    case Tag::kRow: return "row";
    case Tag::kP: return "p";
    case Tag::kImg: return "img";
    case Tag::kWidget: return "widget";
    case Tag::kAdSlot: return "ad-slot";
  }
  return "?";
}

namespace {

struct LayoutContext {
  int viewport_w;
  const ImageDims* image_dims;
  std::vector<LayoutBlock>* blocks;
};

/// Lays the node out with its top-left at (x, y) and `width` available;
/// returns the height consumed.
int layout_node(const DomNode& node, int x, int y, int width, const LayoutContext& ctx) {
  AW4A_EXPECTS(width > 0);
  switch (node.tag) {
    case Tag::kP: {
      // Wrapping model: height scales with text amount and inversely with
      // the column width.
      const double width_factor =
          static_cast<double>(ctx.viewport_w - 2 * kLayoutPadding) / static_cast<double>(width);
      const int height = std::max(
          12, static_cast<int>(std::lround(node.text_chars / 100.0 * kTextPxPer100Chars *
                                           width_factor)));
      ctx.blocks->push_back(LayoutBlock{LayoutBlock::Kind::kText,
                                        {x, y, width, height},
                                        0,
                                        0,
                                        node.style_seed,
                                        node.text_chars});
      return height;
    }
    case Tag::kImg: {
      int natural_w = width;
      int natural_h = std::max(1, width * 2 / 3);
      if (ctx.image_dims != nullptr && *ctx.image_dims) {
        const auto [w, h] = (*ctx.image_dims)(node.object_id);
        if (w > 0 && h > 0) {
          natural_w = w;
          natural_h = h;
        }
      }
      // Clamp to the content width, preserving aspect.
      const int shown_w = std::min(natural_w, width);
      const int shown_h =
          std::max(8, static_cast<int>(std::lround(static_cast<double>(natural_h) * shown_w /
                                                   std::max(1, natural_w))));
      ctx.blocks->push_back(LayoutBlock{LayoutBlock::Kind::kImage,
                                        {x, y, shown_w, shown_h},
                                        node.object_id,
                                        0,
                                        node.style_seed});
      return shown_h;
    }
    case Tag::kWidget: {
      const int w = std::min(width, 140);
      ctx.blocks->push_back(LayoutBlock{LayoutBlock::Kind::kWidget,
                                        {x, y, w, 36},
                                        0,
                                        node.widget,
                                        node.style_seed});
      return 36;
    }
    case Tag::kAdSlot: {
      ctx.blocks->push_back(LayoutBlock{LayoutBlock::Kind::kAdSlot,
                                        {x, y, width, 80},
                                        node.object_id,
                                        0,
                                        node.style_seed});
      return 80;
    }
    case Tag::kRow: {
      if (node.children.empty()) return 0;
      const int n = static_cast<int>(node.children.size());
      const int cell_w = std::max(16, (width - kLayoutGap * (n - 1)) / n);
      int tallest = 0;
      int cx = x;
      for (const DomNode& child : node.children) {
        tallest = std::max(tallest, layout_node(child, cx, y, cell_w, ctx));
        cx += cell_w + kLayoutGap;
      }
      return tallest;
    }
    default: {  // vertical container
      const int inner_x = x + kLayoutPadding;
      const int inner_w = std::max(16, width - 2 * kLayoutPadding);
      int cy = y;
      bool first = true;
      for (const DomNode& child : node.children) {
        if (!first) cy += kLayoutGap;
        first = false;
        cy += layout_node(child, inner_x, cy, inner_w, ctx);
      }
      return cy - y;
    }
  }
}

}  // namespace

LayoutResult layout_dom(const DomNode& root, const LayoutOptions& options,
                        const ImageDims& image_dims) {
  AW4A_EXPECTS(options.viewport_w > 2 * kLayoutPadding);
  LayoutResult result;
  LayoutContext ctx{options.viewport_w, &image_dims, &result.blocks};
  const int height = layout_node(root, 0, kLayoutGap, options.viewport_w, ctx);
  result.page_height = std::max(320, height + 2 * kLayoutGap);
  return result;
}

}  // namespace aw4a::web
