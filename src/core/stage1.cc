#include "core/stage1.h"

#include <cmath>

#include "util/error.h"

namespace aw4a::core {

Bytes apply_stage1(web::ServedPage& served, LadderCache& ladders, const Stage1Options& options,
                   const obs::RequestContext& ctx) {
  AW4A_EXPECTS(served.page != nullptr);
  AW4A_EXPECTS(options.minify_gain > 0.0 && options.minify_gain <= 1.0);
  AW4A_SPAN(ctx, "stage1");
  const Bytes before = served.transfer_size();

  for (const auto& object : served.page->objects) {
    // Anytime: stop on an exhausted budget, keep what is already optimized.
    if (ctx.expired()) break;
    if (served.is_dropped(object.id)) continue;
    switch (object.type) {
      case web::ObjectType::kHtml:
      case web::ObjectType::kCss:
      case web::ObjectType::kJs: {
        if (options.minify_gain >= 1.0) break;
        // Minification on top of whatever the object currently costs (a
        // script already reduced by Muzeel still minifies).
        const Bytes current = served.object_transfer(object);
        const Bytes minified =
            static_cast<Bytes>(std::llround(static_cast<double>(current) * options.minify_gain));
        if (object.type == web::ObjectType::kJs && served.scripts.count(object.id)) {
          served.scripts[object.id].transfer_bytes = minified;
        } else {
          served.retextured[object.id] = minified;
        }
        break;
      }
      case web::ObjectType::kFont: {
        const Bytes current = served.object_transfer(object);
        served.retextured[object.id] = static_cast<Bytes>(std::llround(
            static_cast<double>(current) * (1.0 - options.font_metadata_fraction)));
        break;
      }
      case web::ObjectType::kImage: {
        if (object.image == nullptr) break;
        // Keep any existing variant decision; Stage-1 only upgrades the
        // untouched original.
        if (served.images.count(object.id)) break;
        auto& ladder = ladders.ladder_for(object, ctx);
        const imaging::ImageVariant& webp = ladder.webp_full(ctx);
        const bool visually_equivalent = webp.ssim + 1e-12 >= options.min_transcode_ssim;
        const bool smaller = webp.bytes < object.transfer_bytes;
        if (visually_equivalent && smaller) {
          served.images[object.id] = web::ServedImage{.variant = webp, .dropped = false};
        }
        break;
      }
      default:
        break;
    }
  }
  const Bytes after = served.transfer_size();
  return before - after;
}

}  // namespace aw4a::core
