#include "imaging/variants.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "imaging/resize.h"
#include "imaging/ssim.h"
#include "util/error.h"

namespace aw4a::imaging {
namespace {

/// The ladder's rung grid. Resolution step of the RBR family (paper:
/// "resolution granularity") and the smallest scale it explores.
constexpr double kScaleGranularity = 0.1;
constexpr double kMinScale = 0.1;
/// Quality steps of the Grid Search family (at full resolution).
constexpr int kQualitySteps[] = {92, 85, 75, 65, 55, 45, 35};

int raster_dim_for(ImageClass cls, Rng& rng) {
  // Proxy raster sizes per class; kept modest so ladder enumeration stays
  // fast, large enough for meaningful SSIM windows.
  switch (cls) {
    case ImageClass::kPhoto: return static_cast<int>(rng.uniform_int(96, 144));
    case ImageClass::kGradient: return static_cast<int>(rng.uniform_int(64, 112));
    case ImageClass::kLogo: return static_cast<int>(rng.uniform_int(40, 72));
    case ImageClass::kTextBanner: return static_cast<int>(rng.uniform_int(80, 128));
    case ImageClass::kScreenshot: return static_cast<int>(rng.uniform_int(96, 144));
  }
  return 96;
}

int display_dim_for(ImageClass cls, Rng& rng) {
  // CSS-pixel footprint on a mobile page.
  switch (cls) {
    case ImageClass::kPhoto: return static_cast<int>(rng.uniform_int(240, 360));
    case ImageClass::kGradient: return static_cast<int>(rng.uniform_int(180, 360));
    case ImageClass::kLogo: return static_cast<int>(rng.uniform_int(32, 96));
    case ImageClass::kTextBanner: return static_cast<int>(rng.uniform_int(200, 360));
    case ImageClass::kScreenshot: return static_cast<int>(rng.uniform_int(160, 320));
  }
  return 200;
}

std::size_t format_index(ImageFormat f) { return static_cast<std::size_t>(f); }

/// Span name of an encode, keyed by format (span names must be literals).
const char* encode_span_name(ImageFormat format) {
  switch (format) {
    case ImageFormat::kJpeg: return "encode.jpeg";
    case ImageFormat::kPng: return "encode.png";
    case ImageFormat::kWebp: return "encode.webp";
  }
  return "encode";
}

// Ladder-measurement work counters (build_work_stats). Bumped at the
// measurement sites, not around every codec call, so synthesis
// (make_source_image) and page rendering (render_variant) — which also
// encode but are not "build" work — stay out of the tally.
std::atomic<std::uint64_t> g_encodes{0};
std::atomic<std::uint64_t> g_encoded_bytes{0};
std::atomic<std::uint64_t> g_prepares{0};

void count_encode(const Encoded& enc) {
  g_encodes.fetch_add(1, std::memory_order_relaxed);
  g_encoded_bytes.fetch_add(static_cast<std::uint64_t>(enc.bytes), std::memory_order_relaxed);
}

// The tail every variant measurement shares: the work counters, page-scale
// bytes, and SSIM of the original's luma against the decode redisplayed at
// the original's size. `original_luma` is called inside the "ssim" span, so
// extracting the luma is charged to SSIM like the comparison it serves.
template <typename LumaFn>
ImageVariant finish_measurement(const Encoded& enc, const SourceImage& asset,
                                ImageFormat format, double scale, int quality,
                                const obs::RequestContext& ctx, LumaFn&& original_luma) {
  count_encode(enc);
  ImageVariant v;
  v.format = format;
  v.scale = scale;
  v.quality = quality;
  v.bytes = wire_header_bytes() +
            static_cast<Bytes>(std::llround(static_cast<double>(enc.payload_bytes()) *
                                            asset.byte_scale));
  {
    AW4A_SPAN(ctx, "ssim");
    v.ssim = ssim(original_luma(), redisplay_luma(enc.decoded, asset.original.width(),
                                                  asset.original.height()));
  }
  return v;
}

}  // namespace

BuildWorkStats build_work_stats() {
  return BuildWorkStats{g_encodes.load(std::memory_order_relaxed),
                        g_encoded_bytes.load(std::memory_order_relaxed),
                        g_prepares.load(std::memory_order_relaxed)};
}

SourceImage make_source_image(Rng& rng, ImageClass cls, Bytes target_wire_bytes) {
  AW4A_EXPECTS(target_wire_bytes > 0);
  SourceImage asset;
  asset.id = rng.next_u64();
  asset.cls = cls;
  const int dim = raster_dim_for(cls, rng);
  const int dim2 = std::max(16, static_cast<int>(dim * rng.uniform(0.6, 1.0)));
  asset.original = synth_image(rng, cls, dim, dim2);
  asset.format = natural_format(asset.original);
  asset.ship_quality = static_cast<int>(rng.uniform_int(80, 92));
  asset.display_w = display_dim_for(cls, rng);
  asset.display_h = std::max(24, static_cast<int>(asset.display_w * rng.uniform(0.5, 1.0)));

  const Encoded shipped = encode(asset.format, asset.original, asset.ship_quality);
  AW4A_EXPECTS(shipped.bytes > 0);
  // Calibrate on the payload: headers are a fixed real-world constant, not
  // something that scales with the proxy raster.
  const Bytes header = wire_header_bytes();
  const Bytes payload_target = target_wire_bytes > header ? target_wire_bytes - header : 1;
  asset.byte_scale =
      static_cast<double>(payload_target) / static_cast<double>(shipped.payload_bytes());
  asset.wire_bytes = target_wire_bytes;
  // The shipped original *is* the lossy encode; replace the pristine raster
  // with what actually went over the wire so SSIM=1 corresponds to "same as
  // served", matching the paper (it compares against the served page).
  asset.original = shipped.decoded;
  return asset;
}

VariantLadder::VariantLadder(std::shared_ptr<const SourceImage> asset, LadderOptions options)
    : asset_(std::move(asset)), options_(options) {
  AW4A_EXPECTS(asset_ != nullptr);
}

ImageVariant VariantLadder::original() const {
  return ImageVariant{.format = asset_->format,
                      .scale = 1.0,
                      .quality = asset_->ship_quality,
                      .bytes = asset_->wire_bytes,
                      .ssim = 1.0,
                      .is_original = true};
}

Bytes wire_header_bytes() { return 420; }

ImageVariant measure_variant(const SourceImage& asset, ImageFormat format, double scale,
                             int quality, const obs::RequestContext& ctx,
                             EntropyBackend backend) {
  ctx.check("imaging.measure_variant");
  const Raster reduced = reduce_resolution(asset.original, scale);
  Encoded enc = [&] {
    AW4A_SPAN(ctx, encode_span_name(format));
    return encode(format, reduced, quality, backend);
  }();
  return finish_measurement(enc, asset, format, scale, quality, ctx,
                            [&] { return luma_plane(asset.original); });
}

const PlaneF& VariantLadder::original_luma() const {
  if (!original_luma_) original_luma_ = luma_plane(asset_->original);
  return *original_luma_;
}

const Raster& VariantLadder::reduced_raster(double scale) const {
  for (const auto& [s, raster] : reduced_cache_) {
    if (s == scale) return raster;
  }
  reduced_cache_.emplace_back(scale, reduce_resolution(asset_->original, scale));
  return reduced_cache_.back().second;
}

ImageVariant VariantLadder::measure(ImageFormat format, double scale, int quality,
                                    const obs::RequestContext& ctx) const {
  ctx.check("imaging.measure");
  const Raster& reduced = reduced_raster(scale);
  Encoded enc = [&] {
    AW4A_SPAN(ctx, encode_span_name(format));
    return encode(format, reduced, quality, options_.entropy_backend);
  }();
  return finish_measurement(enc, *asset_, format, scale, quality, ctx,
                            [this]() -> const PlaneF& { return original_luma(); });
}

ImageVariant VariantLadder::measure_prepared(const Prepared& prep, double scale, int quality,
                                             const obs::RequestContext& ctx) const {
  ctx.check("imaging.measure");
  Encoded enc = [&] {
    AW4A_SPAN(ctx, encode_span_name(prep.format));
    return encode_prepared(prep, quality, options_.entropy_backend);
  }();
  return finish_measurement(enc, *asset_, prep.format, scale, quality, ctx,
                            [this]() -> const PlaneF& { return original_luma(); });
}

const std::vector<ImageVariant>& VariantLadder::resolution_family(
    ImageFormat format, const obs::RequestContext& ctx) {
  auto& slot = res_family_[format_index(format)];
  if (!slot) {
    // Enumerated into a local first: a deadline thrown mid-family leaves the
    // slot unset, so a later (un-deadlined) call re-enumerates the full
    // family instead of serving a truncated one.
    std::vector<ImageVariant> family;
    for (double s = 1.0 - kScaleGranularity; s >= kMinScale - 1e-9; s -= kScaleGranularity) {
      ImageVariant v = measure(format, s, asset_->ship_quality, ctx);
      const double ssim_v = v.ssim;
      family.push_back(std::move(v));
      // Keep the first below-floor rung as the sentinel every consumer breaks on.
      if (ssim_v + 1e-12 < options_.min_ssim) break;
    }
    slot = std::move(family);
  }
  return *slot;
}

const std::vector<ImageVariant>& VariantLadder::quality_family(ImageFormat format,
                                                               const obs::RequestContext& ctx) {
  auto& slot = qual_family_[format_index(format)];
  if (!slot) {
    std::vector<ImageVariant> family;
    if (format != ImageFormat::kPng) {  // PNG is lossless: no quality knob
      // Encode-once ladder: every rung shares one full-resolution raster, so
      // the quality-independent work (color conversion + forward DCT) runs
      // once — created lazily at the first rung so an all-skipped ladder
      // pays nothing. encode_prepared() is bit-identical to encode().
      std::optional<Prepared> prep;
      for (const int q : kQualitySteps) {
        if (q >= asset_->ship_quality) continue;  // upcoding never helps
        if (!prep) {
          ctx.check("imaging.quality_family");
          AW4A_SPAN(ctx, "encode.prepare");
          prep = prepare(format, reduced_raster(1.0));
          g_prepares.fetch_add(1, std::memory_order_relaxed);
        }
        ImageVariant v = measure_prepared(*prep, 1.0, q, ctx);
        const double ssim_v = v.ssim;
        family.push_back(std::move(v));
        if (ssim_v + 1e-12 < options_.min_ssim) break;
      }
    }
    slot = std::move(family);
  }
  return *slot;
}

const ImageVariant& VariantLadder::webp_full(const obs::RequestContext& ctx) {
  if (!webp_full_) {
    const int q = asset_->format == ImageFormat::kPng ? 100 : asset_->ship_quality;
    ImageVariant v = measure(ImageFormat::kWebp, 1.0, q, ctx);
    // Full-fidelity settings in a different container: a transcode rung, not
    // a quality rung (kind is informational — bytes/ssim drive selection).
    v.kind = DegradationKind::kTranscode;
    webp_full_ = std::move(v);
  }
  return *webp_full_;
}

std::optional<ImageVariant> VariantLadder::cheapest_fullres_with_ssim_at_least(
    double target, const obs::RequestContext& ctx) {
  std::optional<ImageVariant> best = original();
  auto consider = [&](const ImageVariant& v) {
    if (v.ssim + 1e-12 >= target && (!best || v.bytes < best->bytes)) best = v;
  };
  consider(webp_full(ctx));
  for (const auto& v : quality_family(asset_->format, ctx)) consider(v);
  for (const auto& v : quality_family(ImageFormat::kWebp, ctx)) consider(v);
  if (best && best->ssim + 1e-12 < target) return std::nullopt;
  return best;
}

double VariantLadder::bytes_efficiency(double ssim_threshold, const obs::RequestContext& ctx) {
  // Walk the resolution family of the shipped format down to the threshold;
  // use only points where both bytes and SSIM decreased (the paper considers
  // only the monotone part of the curve).
  const ImageVariant base = original();
  const ImageVariant* deepest = nullptr;
  for (const auto& v : resolution_family(asset_->format, ctx)) {
    if (v.ssim + 1e-12 < ssim_threshold) break;
    if (v.bytes < base.bytes && v.ssim < base.ssim) deepest = &v;
  }
  if (deepest == nullptr) return 0.0;
  const double dbytes = static_cast<double>(base.bytes - deepest->bytes);
  const double dssim = base.ssim - deepest->ssim;
  if (dssim <= 1e-9) {
    // Bytes shrink with no measurable SSIM cost: maximal reducibility.
    return dbytes / 1e-9;
  }
  return dbytes / dssim;
}

VariantMemo VariantLadder::snapshot() const {
  VariantMemo memo;
  for (std::size_t i = 0; i < 3; ++i) {
    memo.res_family[i] = res_family_[i];
    memo.qual_family[i] = qual_family_[i];
  }
  memo.webp_full = webp_full_;
  return memo;
}

void VariantLadder::adopt(const VariantMemo& memo) {
  for (std::size_t i = 0; i < 3; ++i) {
    if (!res_family_[i] && memo.res_family[i]) res_family_[i] = memo.res_family[i];
    if (!qual_family_[i] && memo.qual_family[i]) qual_family_[i] = memo.qual_family[i];
  }
  if (!webp_full_ && memo.webp_full) webp_full_ = memo.webp_full;
}

void VariantLadder::warm(const obs::RequestContext& ctx) {
  webp_full(ctx);
  resolution_family(asset_->format, ctx);
  resolution_family(ImageFormat::kWebp, ctx);
}

ImageVariant placeholder_variant(const SourceImage& asset, std::size_t alt_text_chars) {
  // Pure arithmetic: no encode, no RNG, no memoization needed. The wire cost
  // is the placeholder markup (a sized box + border) plus the alt text, which
  // compresses like prose (~2.6x); both are page-scale bytes already, so
  // byte_scale does not apply.
  constexpr Bytes kMarkupBytes = 54;  // <div class=ph style="w;h"></div> etc.
  const Bytes alt_bytes =
      static_cast<Bytes>(std::llround(static_cast<double>(alt_text_chars) / 2.6));
  ImageVariant v;
  v.format = asset.format;
  v.scale = 0.0;
  v.quality = 0;
  v.kind = DegradationKind::kPlaceholder;
  v.alt_chars = static_cast<std::uint32_t>(std::min<std::size_t>(alt_text_chars, 1u << 20));
  v.bytes = kMarkupBytes + alt_bytes;
  const double described =
      std::min(1.0, static_cast<double>(alt_text_chars) / 80.0);
  v.ssim = std::min(1.0, kPlaceholderBaseSimilarity + kPlaceholderAltBonus * described);
  return v;
}

Raster render_placeholder(const SourceImage& asset, std::size_t alt_text_chars) {
  // A quiet light box with a darker border and text-like stripes: what a
  // browser shows for <img alt=...> without the bytes. Deterministic in
  // (dims, alt length) so QFS screenshot comparisons are stable.
  const int w = asset.original.width();
  const int h = asset.original.height();
  Raster box(w, h, Pixel{236, 238, 240, 255});
  const Pixel border{176, 180, 186, 255};
  for (int x = 0; x < w; ++x) {
    box.at(x, 0) = border;
    box.at(x, h - 1) = border;
  }
  for (int y = 0; y < h; ++y) {
    box.at(0, y) = border;
    box.at(w - 1, y) = border;
  }
  // One stripe per ~24 alt chars, capped to what fits; a bare placeholder
  // (no alt text) stays an empty box.
  const int stripes = static_cast<int>(
      std::min<std::size_t>(alt_text_chars / 24, static_cast<std::size_t>(h / 6)));
  const Pixel ink{120, 126, 134, 255};
  for (int s = 0; s < stripes; ++s) {
    const int y = 3 + s * 6;
    if (y + 1 >= h - 1) break;
    const int len = std::max(4, w - 6 - (s % 3) * (w / 8));
    for (int x = 3; x < 3 + len && x < w - 1; ++x) {
      box.at(x, y) = ink;
      box.at(x, y + 1) = ink;
    }
  }
  return box;
}

Raster render_variant(const SourceImage& asset, const ImageVariant& v) {
  if (v.is_original) return asset.original;
  if (v.kind == DegradationKind::kPlaceholder) {
    return render_placeholder(asset, v.alt_chars);
  }
  const Raster reduced = reduce_resolution(asset.original, v.scale);
  // Entropy coding is lossless, so the decoded raster is identical under
  // either backend; rendering always takes the cheap Huffman path even for
  // ladders measured with rANS.
  const Encoded enc = encode(v.format, reduced, v.quality);
  return redisplay(enc.decoded, asset.original.width(), asset.original.height());
}

}  // namespace aw4a::imaging
