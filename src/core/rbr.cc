#include "core/rbr.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace aw4a::core {
namespace {

/// Linear normalization of a raw heuristic vector to [0, 1]; degenerate
/// (constant) vectors normalize to all-ones so the other heuristic decides.
std::vector<double> normalize(std::vector<double> v) {
  if (v.empty()) return v;
  const auto [lo_it, hi_it] = std::minmax_element(v.begin(), v.end());
  const double lo = *lo_it;
  const double hi = *hi_it;
  if (hi - lo < 1e-12) {
    std::fill(v.begin(), v.end(), 1.0);
    return v;
  }
  for (double& x : v) x = (x - lo) / (hi - lo);
  return v;
}

imaging::ImageFormat working_format(const web::ServedPage& served,
                                    const web::WebObject& object) {
  // If a WebP decision is already recorded (Stage-1 or the WebP pass), keep
  // walking the WebP ladder; otherwise stay in the shipped format.
  if (const auto it = served.images.find(object.id); it != served.images.end()) {
    if (it->second.variant) return it->second.variant->format;
  }
  return object.image->format;
}

}  // namespace

std::vector<std::pair<std::uint64_t, double>> reducibility_ranking(
    const web::WebPage& page, LadderCache& ladders, const RbrOptions& options,
    const obs::RequestContext& ctx) {
  AW4A_EXPECTS(options.area_weight >= 0.0 && options.bytes_efficiency_weight >= 0.0);
  AW4A_EXPECTS(options.area_weight + options.bytes_efficiency_weight > 0.0);
  const auto images = rich_images(page);

  std::vector<double> area_raw;
  std::vector<double> eff_raw;
  area_raw.reserve(images.size());
  eff_raw.reserve(images.size());
  for (const web::WebObject* object : images) {
    // Smaller area => higher reducibility, so feed the negated area in.
    area_raw.push_back(-object->image->display_area());
    eff_raw.push_back(
        ladders.ladder_for(*object, ctx).bytes_efficiency(options.quality_threshold, ctx));
  }
  const std::vector<double> area_norm = normalize(std::move(area_raw));
  const std::vector<double> eff_norm = normalize(std::move(eff_raw));

  std::vector<std::pair<std::uint64_t, double>> ranking;
  ranking.reserve(images.size());
  const double wsum = options.area_weight + options.bytes_efficiency_weight;
  for (std::size_t i = 0; i < images.size(); ++i) {
    double score = (options.area_weight * area_norm[i] +
                    options.bytes_efficiency_weight * eff_norm[i]) /
                   wsum;
    // §5.4: developer-prioritized objects are reduced last. The weight
    // divides the score so priority 2 halves an image's reducibility.
    AW4A_EXPECTS(images[i]->developer_weight > 0.0);
    score /= images[i]->developer_weight;
    ranking.emplace_back(images[i]->id, score);
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return ranking;
}

RbrOutcome rank_based_reduce(web::ServedPage& served, Bytes target_bytes, LadderCache& ladders,
                             const RbrOptions& options, const obs::RequestContext& ctx) {
  AW4A_EXPECTS(served.page != nullptr);
  AW4A_SPAN(ctx, "stage2.rbr");
  const web::WebPage& page = *served.page;
  RbrOutcome outcome;

  auto current_total = [&] { return served.transfer_size(); };
  auto done = [&] { return current_total() <= target_bytes; };
  if (done()) {
    outcome.met_target = true;
    outcome.bytes_after = current_total();
    return outcome;
  }

  // WebP conversion pass (paper: convert PNGs when SSIM stays above Qt and
  // the Bytes Efficiency is better in WebP).
  for (const web::WebObject* object : rich_images(page)) {
    if (ctx.expired()) break;  // anytime: keep what we have
    if (served.is_dropped(object->id) || served.images.count(object->id)) continue;
    if (object->image->format != imaging::ImageFormat::kPng) continue;
    auto& ladder = ladders.ladder_for(*object, ctx);
    const imaging::ImageVariant& webp = ladder.webp_full(ctx);
    if (webp.ssim + 1e-12 >= options.quality_threshold && webp.bytes < object->transfer_bytes) {
      served.images[object->id] = web::ServedImage{.variant = webp, .dropped = false};
      ++outcome.images_touched;
      if (done()) {
        outcome.met_target = true;
        outcome.bytes_after = current_total();
        return outcome;
      }
    }
  }

  // Greedy reduction in reducibility order (Algorithm 1's priority queue).
  const auto ranking = reducibility_ranking(page, ladders, options, ctx);
  for (const auto& [object_id, score] : ranking) {
    if (ctx.expired()) break;  // anytime: stop between images
    const web::WebObject* object = page.find(object_id);
    if (object == nullptr || served.is_dropped(object_id)) continue;
    auto& ladder = ladders.ladder_for(*object, ctx);
    const imaging::ImageFormat format = working_format(served, *object);
    const auto& family = ladder.resolution_family(format, ctx);

    // Resume below any variant already applied to this image.
    double current_scale = 1.0;
    Bytes current_bytes = object->transfer_bytes;
    if (const auto it = served.images.find(object_id);
        it != served.images.end() && it->second.variant) {
      current_scale = it->second.variant->scale;
      current_bytes = it->second.variant->bytes;
    }

    bool touched = false;
    for (const imaging::ImageVariant& step : family) {
      if (step.scale >= current_scale - 1e-9) continue;         // already below this rung
      if (step.ssim + 1e-12 < options.quality_threshold) break; // Qt floor reached
      if (step.bytes >= current_bytes) continue;  // non-monotone rung: skip, keep walking
      served.images[object_id] = web::ServedImage{.variant = step, .dropped = false};
      current_bytes = step.bytes;
      current_scale = step.scale;
      touched = true;
      if (done()) {
        if (touched) ++outcome.images_touched;
        outcome.met_target = true;
        outcome.bytes_after = current_total();
        return outcome;
      }
    }
    if (touched) ++outcome.images_touched;
  }

  // Placeholder descent (DESIGN.md §14): the resolution ladders are
  // exhausted and the target is still unmet — substitute alt-text
  // placeholders, in the same reducibility order, wherever the rung's
  // similarity floor clears Qt and it actually saves bytes. With any
  // practical Qt the floor disqualifies every placeholder, so this pass is a
  // no-op for image-only configs; under an ultra-low Qt it is what carries
  // RBR (and HBS) past the deepest encode rung.
  if (!done()) {
    for (const auto& [object_id, score] : ranking) {
      if (ctx.expired()) break;
      const web::WebObject* object = page.find(object_id);
      if (object == nullptr || served.is_dropped(object_id)) continue;
      const auto ph = ladders.placeholder_rung(*object);
      if (!ph || ph->ssim + 1e-12 < options.quality_threshold) continue;
      Bytes current_bytes = object->transfer_bytes;
      if (const auto it = served.images.find(object_id);
          it != served.images.end() && it->second.variant) {
        current_bytes = it->second.variant->bytes;
      }
      if (ph->bytes >= current_bytes) continue;
      served.images[object_id] = web::ServedImage{.variant = *ph, .dropped = false};
      ++outcome.images_touched;
      if (done()) {
        outcome.met_target = true;
        outcome.bytes_after = current_total();
        return outcome;
      }
    }
  }

  outcome.bytes_after = current_total();
  outcome.met_target = done();
  return outcome;
}

}  // namespace aw4a::core
