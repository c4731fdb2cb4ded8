#include "web/render.h"

#include <algorithm>
#include <cmath>

#include "imaging/resize.h"
#include "util/error.h"
#include "util/rng.h"

namespace aw4a::web {
namespace {

using imaging::Pixel;
using imaging::Raster;

struct Canvas {
  Raster img;

  int sx(int css) const { return static_cast<int>(std::lround(css * kCanvasScale)); }

  void rect(const Rect& r, Pixel p) { img.fill_rect(sx(r.x), sx(r.y), sx(r.w), sx(r.h), p); }

  void outline(const Rect& r, Pixel p) {
    const int t = std::max(1, sx(2));
    img.fill_rect(sx(r.x), sx(r.y), sx(r.w), t, p);
    img.fill_rect(sx(r.x), sx(r.y + r.h) - t, sx(r.w), t, p);
    img.fill_rect(sx(r.x), sx(r.y), t, sx(r.h), p);
    img.fill_rect(sx(r.x + r.w) - t, sx(r.y), t, sx(r.h), p);
  }
};

// Deterministic text texture: glyph-stripe rows whose run lengths derive from
// the block's style seed, so the same block renders identically across runs
// and differs between blocks.
void draw_text_block(Canvas& canvas, const LayoutBlock& block, bool fonts_present) {
  Rng rng(0xABCD0000u ^ block.style_seed);
  const Pixel ink = fonts_present ? Pixel{45, 45, 50, 255} : Pixel{85, 85, 95, 255};
  const int line_pitch = 9;
  const int line_h = 4;
  const int x_shift = fonts_present ? 0 : 1;  // fallback font metrics shift
  for (int y = block.rect.y + 2; y + line_h <= block.rect.y + block.rect.h; y += line_pitch) {
    int x = block.rect.x + x_shift;
    const int x_end = block.rect.x + block.rect.w;
    while (x < x_end) {
      const int word = static_cast<int>(rng.uniform_int(8, 30));
      const int gap = static_cast<int>(rng.uniform_int(3, 7));
      canvas.rect({x, y, std::min(word, x_end - x), line_h}, ink);
      x += word + gap;
    }
    // Last line of a paragraph is short.
    if (rng.bernoulli(0.25)) y += line_pitch;
  }
}

void draw_image_block(Canvas& canvas, const ServedPage& served, const LayoutBlock& block,
                      ScaledOriginals& originals) {
  const WebObject* object = served.page->find(block.object_id);
  const bool dropped = object == nullptr || served.is_dropped(block.object_id);
  if (dropped) {
    // Broken-image placeholder.
    canvas.rect(block.rect, Pixel{236, 236, 238, 255});
    canvas.outline(block.rect, Pixel{200, 200, 204, 255});
    return;
  }
  if (object->image == nullptr) {
    // Inventory page (no raster): flat proxy tinted by the object id.
    const auto tint = static_cast<std::uint8_t>(120 + (object->id % 80));
    canvas.rect(block.rect, Pixel{tint, static_cast<std::uint8_t>(tint / 2 + 60), 120, 255});
    return;
  }
  const int w = std::max(1, canvas.sx(block.rect.w));
  const int h = std::max(1, canvas.sx(block.rect.h));
  const int x = canvas.sx(block.rect.x);
  const int y = canvas.sx(block.rect.y);
  if (const auto it = served.images.find(block.object_id); it != served.images.end()) {
    if (it->second.variant && !it->second.variant->is_original) {
      const Raster variant = imaging::render_variant(*object->image, *it->second.variant);
      canvas.img.composite(imaging::resize_bilinear(variant, w, h), x, y);
      return;
    }
  }
  canvas.img.composite(originals.get(*object, w, h), x, y);
}

void draw_widget_block(Canvas& canvas, const ServedPage& served, const RenderState& state,
                       const LayoutBlock& block) {
  if (!widget_functional(served, block.widget)) {
    // Dead widget: an inert outline where the control used to be.
    canvas.outline(block.rect, Pixel{210, 210, 214, 255});
    return;
  }
  const bool toggled = state.toggled.count(block.widget) > 0;
  const Pixel fill = toggled ? Pixel{235, 140, 52, 255} : Pixel{66, 110, 180, 255};
  canvas.rect(block.rect, fill);
  // Label stripe.
  canvas.rect({block.rect.x + 6, block.rect.y + block.rect.h / 2 - 2,
               std::max(4, block.rect.w * 2 / 3), 4},
              Pixel{255, 255, 255, 255});
}

void draw_ad_block(Canvas& canvas, const ServedPage& served, const LayoutBlock& block) {
  if (served.is_dropped(block.object_id)) return;  // blocked ad leaves white space
  canvas.rect(block.rect, Pixel{252, 242, 212, 255});
  canvas.outline(block.rect, Pixel{216, 186, 110, 255});
  canvas.rect({block.rect.x + 8, block.rect.y + block.rect.h / 3, block.rect.w / 2, 5},
              Pixel{150, 120, 60, 255});
}

}  // namespace

const imaging::Raster& ScaledOriginals::get(const WebObject& object, int w, int h) {
  AW4A_EXPECTS(object.image != nullptr);
  for (const Entry& entry : entries_) {
    if (entry.object_id == object.id && entry.w == w && entry.h == h) return entry.scaled;
  }
  entries_.push_back(
      Entry{object.id, w, h, imaging::resize_bilinear(object.image->original, w, h)});
  return entries_.back().scaled;
}

bool widget_functional(const ServedPage& served, js::WidgetId widget) {
  AW4A_EXPECTS(served.page != nullptr);
  for (const auto& object : served.page->objects) {
    if (object.type != ObjectType::kJs || object.script == nullptr) continue;
    if (served.is_dropped(object.id)) continue;
    for (const auto& f : object.script->functions) {
      if (f.visual_widget == widget && served.function_live(object.id, f.id)) return true;
    }
  }
  return false;
}

imaging::Raster render_page(const ServedPage& served, const RenderState& state,
                            ScaledOriginals* originals) {
  AW4A_EXPECTS(served.page != nullptr);
  const WebPage& page = *served.page;

  Canvas canvas{Raster(std::max(1, static_cast<int>(page.viewport_w * kCanvasScale)),
                       std::max(1, static_cast<int>(page.page_height * kCanvasScale)),
                       Pixel{255, 255, 255, 255})};

  // CSS gone => unstyled document: everything collapses to a left-aligned
  // column at half width; fonts gone => fallback text metrics.
  bool css_present = false;
  bool fonts_present = false;
  bool css_exists = false;
  bool fonts_exist = false;
  for (const auto& object : page.objects) {
    if (object.type == ObjectType::kCss) {
      css_exists = true;
      css_present |= !served.is_dropped(object.id);
    }
    if (object.type == ObjectType::kFont) {
      fonts_exist = true;
      fonts_present |= !served.is_dropped(object.id);
    }
  }
  if (!css_exists) css_present = true;    // pages without CSS render as-is
  if (!fonts_exist) fonts_present = true; // system fonts

  ScaledOriginals this_render;
  ScaledOriginals& scaled = originals != nullptr ? *originals : this_render;

  for (const LayoutBlock& original_block : page.layout) {
    LayoutBlock block = original_block;
    if (!css_present) {
      block.rect.x = 4;
      block.rect.w = std::max(16, page.viewport_w / 2);
    }
    switch (block.kind) {
      case LayoutBlock::Kind::kText:
        draw_text_block(canvas, block, fonts_present);
        break;
      case LayoutBlock::Kind::kImage:
        draw_image_block(canvas, served, block, scaled);
        break;
      case LayoutBlock::Kind::kWidget:
        draw_widget_block(canvas, served, state, block);
        break;
      case LayoutBlock::Kind::kAdSlot:
        draw_ad_block(canvas, served, block);
        break;
    }
  }
  return std::move(canvas.img);
}

}  // namespace aw4a::web
