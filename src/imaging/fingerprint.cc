#include "imaging/fingerprint.h"

#include <cstring>

#include "util/hash.h"

namespace aw4a::imaging {

std::uint64_t raster_fingerprint(const Raster& raster) {
  std::uint64_t h = hash_mix(0x6177346166703121ULL, static_cast<std::uint64_t>(raster.width()));
  h = hash_mix(h, static_cast<std::uint64_t>(raster.height()));
  const std::vector<Pixel>& pixels = raster.pixels();
  // Two RGBA pixels per mix step; the loop reads raw bytes, so the digest is
  // independent of how the compiler lays out struct Pixel's members beyond
  // their declared order.
  std::size_t i = 0;
  for (; i + 2 <= pixels.size(); i += 2) {
    std::uint64_t word;
    std::memcpy(&word, &pixels[i], sizeof(word));
    h = hash_mix(h, word);
  }
  if (i < pixels.size()) {
    std::uint32_t tail;
    std::memcpy(&tail, &pixels[i], sizeof(tail));
    h = hash_mix(h, static_cast<std::uint64_t>(tail));
  }
  return h;
}

std::uint64_t asset_shape_fingerprint(const SourceImage& asset) {
  std::uint64_t h = hash_mix(0x6177346173686121ULL,
                             static_cast<std::uint64_t>(asset.original.width()));
  h = hash_mix(h, static_cast<std::uint64_t>(asset.original.height()));
  h = hash_mix(h, static_cast<std::uint64_t>(asset.format));
  h = hash_mix(h, static_cast<std::uint64_t>(asset.ship_quality));
  h = hash_mix(h, static_cast<std::uint64_t>(asset.wire_bytes));
  h = hash_mix(h, asset.byte_scale);
  return h;
}

std::uint64_t asset_fingerprint(const SourceImage& asset) {
  return hash_mix(asset_shape_fingerprint(asset), raster_fingerprint(asset.original));
}

std::uint64_t ladder_options_fingerprint(const LadderOptions& options) {
  std::uint64_t h =
      hash_mix(0x6177346c6f707421ULL, static_cast<std::uint64_t>(options.metric));
  h = hash_mix(h, options.min_ssim);
  h = hash_mix(h, options.scale_granularity);
  h = hash_mix(h, options.min_scale);
  h = hash_mix(h, static_cast<std::uint64_t>(options.quality_steps.size()));
  for (const int q : options.quality_steps) h = hash_mix(h, static_cast<std::uint64_t>(q));
  // The entropy backend changes every measured byte count, so ladders (and
  // therefore AssetStore recipes, which embed this fingerprint) must never
  // mix backends.
  h = hash_mix(h, static_cast<std::uint64_t>(options.entropy_backend));
  // The heterogeneous rung knobs (DESIGN.md §14): enabling the placeholder
  // rung — or moving its similarity floor — changes the candidate space every
  // solver sees, so mixed-rung configs must never alias image-only ones.
  // Folded in only when enabled, so every pre-existing image-only fingerprint
  // is bit-identical to before the refactor.
  if (options.placeholder_rung) {
    h = hash_mix(h, std::uint64_t{0x6177346578726e67ULL});
    h = hash_mix(h, options.placeholder_base_similarity);
    h = hash_mix(h, options.placeholder_alt_bonus);
  }
  return h;
}

}  // namespace aw4a::imaging
