// DOM tree and block-flow layout.
//
// Pages carry a simplified document tree (containers, paragraphs, images,
// JS-controlled widgets, ad slots); a block-flow layout pass computes the
// rectangles the renderer paints. This is the structural substrate behind
// the screenshots QSS/QFS compare: transcoders change *what* a node shows
// (degraded image, dead widget), the tree decides *where*.
//
// The layout model is deliberately small but real:
//   - containers stack children vertically with a gap and horizontal padding,
//   - a kRow container splits the content width equally among its children,
//   - images are sized by their display dimensions, clamped to the content
//     width with the aspect ratio preserved,
//   - paragraphs get a height from their declared text amount.
#pragma once

#include <functional>
#include <vector>

#include "web/page.h"

namespace aw4a::web {

enum class Tag {
  kBody,
  kHeader,
  kNav,
  kMain,
  kSection,
  kArticle,
  kFooter,
  kDiv,
  kRow,     ///< children laid out side by side
  kP,       ///< text paragraph
  kImg,
  kWidget,  ///< JS-controlled control
  kAdSlot,
};

const char* to_string(Tag tag);

struct DomNode {
  Tag tag = Tag::kDiv;
  /// For kImg / kAdSlot: the WebObject shown.
  std::uint64_t object_id = 0;
  /// For kWidget: the JS widget identity.
  js::WidgetId widget = 0;
  /// For kP: approximate characters of text (drives the height).
  int text_chars = 0;
  /// Deterministic texture seed for the renderer.
  std::uint32_t style_seed = 0;
  std::vector<DomNode> children;
};

struct LayoutOptions {
  int viewport_w = 360;
};

/// Horizontal padding inside containers (CSS pixels).
inline constexpr int kLayoutPadding = 8;
/// Vertical gap between siblings, and between cells of a row (CSS pixels).
inline constexpr int kLayoutGap = 6;
/// Pixels of paragraph height per 100 characters at the full content width
/// (narrower columns wrap to proportionally taller blocks).
inline constexpr double kTextPxPer100Chars = 14.0;

/// Resolves an image object to its natural display (w, h) in CSS pixels.
using ImageDims = std::function<std::pair<int, int>(std::uint64_t object_id)>;

struct LayoutResult {
  std::vector<LayoutBlock> blocks;  ///< paint list, document order
  int page_height = 0;
};

/// Lays out the tree for the given viewport. `image_dims` may be null, in
/// which case images default to the full content width at a 3:2 aspect.
LayoutResult layout_dom(const DomNode& root, const LayoutOptions& options = {},
                        const ImageDims& image_dims = nullptr);

}  // namespace aw4a::web
