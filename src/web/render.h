// Page renderer: rasterizes a ServedPage to a screenshot.
//
// QSS needs per-image SSIM, but QFS needs whole-page screenshots before and
// after each user event, on both the original and the transcoded page. This
// renderer provides those screenshots. It is a layout *model*, not a browser:
// text paragraphs render as deterministic glyph stripes, images composite
// their (possibly degraded) rasters, JS-controlled widgets draw only when the
// controlling function is actually served, and dropping CSS collapses the
// styled layout — enough structure for SSIM to respond to every optimization
// the paper applies.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "imaging/raster.h"
#include "web/page.h"

namespace aw4a::web {

/// Canvas pixels per CSS pixel (0.5 keeps screenshot SSIM fast).
inline constexpr double kCanvasScale = 0.5;

/// Dynamic page state produced by user interaction (toggled widgets).
struct RenderState {
  std::set<js::WidgetId> toggled;
};

/// Equal states repaint the same widgets, so they render the same pixels.
inline bool operator==(const RenderState& a, const RenderState& b) {
  return a.toggled == b.toggled;
}

/// Original image rasters already scaled to their on-canvas size, kept
/// across renders of one page (DESIGN.md §8). An image block shows its
/// original at one of two sizes (styled or collapsed layout), and QFS renders
/// the same page dozens of times, so each bilinear scale runs once instead
/// of once per render. Degraded variants are never kept. Not thread-safe.
class ScaledOriginals {
 public:
  /// `object`'s original raster scaled to (w, h). The reference stays valid
  /// until the next call.
  const imaging::Raster& get(const WebObject& object, int w, int h);

 private:
  struct Entry {
    std::uint64_t object_id = 0;
    int w = 0;
    int h = 0;
    imaging::Raster scaled;
  };
  std::vector<Entry> entries_;
};

/// True if some served (non-dropped) script still controls `widget`.
bool widget_functional(const ServedPage& served, js::WidgetId widget);

/// Renders the page under the given serving decisions and dynamic state.
/// With `originals`, image blocks that show their original raster take the
/// scaled copy from it; the pixels are the same either way.
imaging::Raster render_page(const ServedPage& served, const RenderState& state = {},
                            ScaledOriginals* originals = nullptr);

}  // namespace aw4a::web
