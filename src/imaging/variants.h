// Per-image optimization search space.
//
// A SourceImage is one image asset on a page: a synthesized raster plus its
// shipped format and wire size. Because the paper's images are hundreds of KB
// while our proxy rasters are small, each asset carries a byte_scale mapping
// encoder output to page-scale wire bytes; *ratios* between variants — which
// is all the optimizer consumes — are exact encoder measurements.
//
// A VariantLadder lazily enumerates reduced versions of the asset:
//   - the resolution family (RBR's "linearly reduce the resolution"),
//   - the quality family (Grid Search's SSIM-level versions),
//   - the full-resolution WebP transcode (Stage-1's PNG->WebP rule),
// measuring real (bytes, SSIM-after-redisplay) for each. Results are memoized
// per asset, so repeated optimizer passes are cheap.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "imaging/codec.h"
#include "imaging/ssim.h"
#include "imaging/raster.h"
#include "imaging/synth.h"
#include "obs/context.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace aw4a::imaging {

/// One image asset as shipped on a page.
struct SourceImage {
  std::uint64_t id = 0;
  Raster original;
  ImageClass cls = ImageClass::kPhoto;
  ImageFormat format = ImageFormat::kJpeg;  ///< shipped format
  int ship_quality = 85;                    ///< quality the original was encoded at
  Bytes wire_bytes = 0;                     ///< shipped (compressed) size on the page
  /// Wire bytes per encoder *payload* byte. Proxy rasters are small, so the
  /// container header would dominate and artificially floor deep reductions;
  /// scaling the payload only (plus a fixed real-world header) keeps byte
  /// ratios faithful to full-size images.
  double byte_scale = 1.0;
  int display_w = 0;                        ///< CSS pixels occupied on the page
  int display_h = 0;

  double display_area() const {
    return static_cast<double>(display_w) * static_cast<double>(display_h);
  }
};

/// Synthesizes an asset of the given class whose shipped wire size is
/// `target_wire_bytes`; display dims default to a class-typical size.
SourceImage make_source_image(Rng& rng, ImageClass cls, Bytes target_wire_bytes);

/// What a degradation rung *does* to the object. The ladder used to be
/// image-quality-only; the heterogeneous rung space (DESIGN.md §14) adds
/// non-encode actions that the same solvers trade off against encode rungs.
enum class DegradationKind : std::uint8_t {
  kQualityRung = 0,  ///< re-encode at reduced scale and/or quality
  kTranscode = 1,    ///< format change at full fidelity settings (PNG->WebP)
  kPlaceholder = 2,  ///< alt-text placeholder box replaces the pixels
  kDrop = 3,         ///< object removed entirely (markup-rewrite tier)
};

/// One reduced version of an asset.
struct ImageVariant {
  ImageFormat format = ImageFormat::kJpeg;
  double scale = 1.0;   ///< resolution scale applied before encoding
  int quality = 85;     ///< codec quality
  Bytes bytes = 0;      ///< page-scale wire bytes (byte_scale applied)
  /// Quality point vs the original. For encode rungs this is measured SSIM
  /// after redisplay; for kPlaceholder it is the analytic similarity floor
  /// (see placeholder_variant) — stored in the same field so QSS and every
  /// `ssim >= threshold` candidate filter work unchanged over mixed rungs.
  double ssim = 1.0;
  DegradationKind kind = DegradationKind::kQualityRung;
  /// Alt-text length backing a kPlaceholder rung (drives both the similarity
  /// floor and the rendered text stripes); 0 for every encode rung.
  std::uint32_t alt_chars = 0;

  bool is_original = false;
};

struct LadderOptions {
  /// Floor below which variants are not enumerated: a family stops after its
  /// first rung with ssim + 1e-12 < min_ssim, the rung a solver run at
  /// Qt = min_ssim breaks on.
  double min_ssim = 0.60;
  /// Entropy coder of the lossy codecs for every measured variant. Part of
  /// ladder identity: mixed into ladder_options_fingerprint(), so TierCache
  /// entries and AssetStore recipes never mix backends.
  EntropyBackend entropy_backend = EntropyBackend::kHuffman;
  /// Expose the placeholder (alt-text substitution) rung below the encode
  /// families. Off by default: with it off the rung space — and therefore
  /// every fingerprint-pinned image-only config — is bit-identical to the
  /// pre-heterogeneous ladder. Mixed into ladder_options_fingerprint().
  bool placeholder_rung = false;
};

/// Analytic similarity floor of a bare placeholder box (no alt text). Far
/// below any practical Qt, so placeholders only enter candidate sets when a
/// solver is explicitly run with an ultra-low threshold.
inline constexpr double kPlaceholderBaseSimilarity = 0.22;
/// Similarity credit for descriptive alt text, applied as
/// base + bonus * min(1, alt_chars/80): a described image placeholder
/// carries more of the original's meaning than an anonymous gray box.
inline constexpr double kPlaceholderAltBonus = 0.16;

/// Re-creates the decoded, redisplayed raster of a variant of `asset` — what
/// the user's screen shows (used by the page renderer and QFS).
Raster render_variant(const SourceImage& asset, const ImageVariant& v);

/// The placeholder rung of `asset`: pure arithmetic, no encode, no RNG. The
/// byte cost is the markup of a placeholder box plus the (compressible) alt
/// text; the quality point is kPlaceholderBaseSimilarity, raised by
/// descriptive alt text (kPlaceholderAltBonus). Deterministic in (asset,
/// alt_text_chars) only — the rung is the same under every LadderOptions —
/// and safe to compute outside the memoized families.
ImageVariant placeholder_variant(const SourceImage& asset, std::size_t alt_text_chars);

/// Renders what the placeholder rung shows on screen: a flat quiet box with a
/// thin border and text-like stripes derived from the alt text length —
/// deterministic so renderer-based QFS comparisons are stable.
Raster render_placeholder(const SourceImage& asset, std::size_t alt_text_chars);

/// A portable snapshot of a VariantLadder's memoized families — what the
/// serving asset store shares across sites. Slots are optional per family:
/// adopting a partial memo is sound because an unset slot simply enumerates
/// lazily (and enumeration is deterministic, so a slot filled locally equals
/// the slot a warmer ladder would have shared).
struct VariantMemo {
  std::optional<std::vector<ImageVariant>> res_family[3];
  std::optional<std::vector<ImageVariant>> qual_family[3];
  std::optional<ImageVariant> webp_full;
};

/// Process-wide counters of ladder-measurement encode work (relaxed atomics;
/// safe from any thread). `encoded_bytes` sums encoder output at proxy scale
/// — the "bytes built" a dedup layer avoids. Benches difference two reads
/// around a workload to measure build work without instrumenting the codecs.
struct BuildWorkStats {
  std::uint64_t encodes = 0;        ///< variant measurements that ran a codec
  std::uint64_t encoded_bytes = 0;  ///< encoder output bytes (proxy scale)
  std::uint64_t prepares = 0;       ///< prepare() calls (forward DCT work)
};
BuildWorkStats build_work_stats();

/// Fixed wire-size header constant applied to every page-scale variant.
Bytes wire_header_bytes();

/// Measures one specific (format, scale, quality) variant of `asset`:
/// real encode, page-scale bytes, SSIM after redisplay. Uncached — the
/// baseline transcoders use this for their fixed settings. The context
/// carries the request deadline (checked before the encode) and receives
/// "encode.<fmt>" / "ssim" spans when tracing.
ImageVariant measure_variant(const SourceImage& asset, ImageFormat format, double scale,
                             int quality,
                             const obs::RequestContext& ctx = obs::RequestContext::none(),
                             EntropyBackend backend = EntropyBackend::kHuffman);

/// Lazily enumerated, memoized variant space for one asset.
class VariantLadder {
 public:
  VariantLadder(std::shared_ptr<const SourceImage> asset, LadderOptions options = {});

  const LadderOptions& options() const { return options_; }

  /// The as-shipped variant (scale 1, SSIM 1, shipped bytes).
  ImageVariant original() const;

  // Enumeration entry points all accept a RequestContext: the deadline is
  // checked before each *new* measurement (memoized families return without
  // any check, so a warm ladder never throws), and encode/SSIM spans are
  // emitted when tracing. An enumeration aborted by the deadline memoizes
  // nothing — the next call re-attempts from scratch, so results are
  // independent of when a deadline fired.

  /// Resolution family in `format`: scale 0.9, 0.8, ... (SSIM-measured).
  /// Stops at scale 0.1 or after the first rung below min_ssim (kept as the
  /// family's last rung).
  const std::vector<ImageVariant>& resolution_family(
      ImageFormat format, const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Quality family at full resolution in `format` (lossy formats only; for
  /// PNG this returns just the original since PNG is lossless). The rungs
  /// share one prepare() of the full-resolution raster, so the
  /// forward DCT runs once for the whole family; outputs are bit-identical
  /// to per-rung single-shot encodes.
  const std::vector<ImageVariant>& quality_family(
      ImageFormat format, const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Full-resolution WebP transcode at ship quality (lossless WebP for PNG
  /// sources, lossy otherwise).
  const ImageVariant& webp_full(const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Cheapest full-resolution variant (quality families and the WebP
  /// transcode) with ssim >= target; nullopt if none qualifies. This is the
  /// move set of the paper's Grid Search, which reduces image *quality*
  /// "while maintaining their original dimensions" (§7.1). RBR's resolution
  /// ladder is excluded on purpose: the two solvers searching different
  /// spaces is why each can win on some inputs.
  std::optional<ImageVariant> cheapest_fullres_with_ssim_at_least(
      double target, const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Paper Eq. 6: |delta bytes| / |delta SSIM| between the original and the
  /// smallest in-threshold variant of the resolution family (monotone points
  /// only). Higher = more reducible.
  double bytes_efficiency(double ssim_threshold,
                          const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Copies every memoized family into a shareable memo (unset slots stay
  /// unset — snapshot never forces enumeration).
  VariantMemo snapshot() const;

  /// Fills this ladder's *unset* slots from `memo`. Locally enumerated
  /// families always win, so adopting can never replace measured data; the
  /// caller is responsible for only adopting memos whose asset content and
  /// options match this ladder's (the asset store keys on exactly that).
  void adopt(const VariantMemo& memo);

  /// Enumerates the families the default HBS solver reads: the WebP
  /// transcode and both formats' resolution families. The quality families
  /// stay unset; Grid Search and knapsack fill them lazily. The asset store
  /// and LadderCache::prewarm both warm through here. Unlike prewarm this
  /// propagates failures: a store warming an entry must know the memo is
  /// complete before sharing it.
  void warm(const obs::RequestContext& ctx = obs::RequestContext::none());

 private:
  ImageVariant measure(ImageFormat format, double scale, int quality,
                       const obs::RequestContext& ctx) const;

  /// measure() with the encode split at the prepare/encode_prepared seam:
  /// `prep` must come from prepare() on the raster the variant represents.
  /// quality_family() uses this to run the forward DCT once per ladder
  /// instead of once per rung.
  ImageVariant measure_prepared(const Prepared& prep, double scale, int quality,
                                const obs::RequestContext& ctx) const;

  /// Luma of the original, extracted on first use: every variant measurement
  /// compares against the same original, so its luma is computed once per
  /// ladder instead of once per measure() call.
  const PlaneF& original_luma() const;

  /// The original reduced to `scale`, memoized per distinct scale: the three
  /// per-format resolution families (and any solver probe) revisit the same
  /// scale steps, so each box-resize runs once per ladder instead of once
  /// per format. Keyed by the exact scale double — families derive scales
  /// from identical arithmetic, so equality comparison is sound.
  const Raster& reduced_raster(double scale) const;

  std::shared_ptr<const SourceImage> asset_;
  LadderOptions options_;
  mutable std::optional<PlaneF> original_luma_;
  mutable std::vector<std::pair<double, Raster>> reduced_cache_;
  std::optional<std::vector<ImageVariant>> res_family_[3];
  std::optional<std::vector<ImageVariant>> qual_family_[3];
  std::optional<ImageVariant> webp_full_;
};

/// A provider of shared VariantMemos keyed by asset *content* — implemented
/// by serving::AssetStore and threaded (as a nullable pointer) through
/// core::LadderCache, so the optimizer layer can consume cross-site dedup
/// without depending on the serving layer. acquire() returns the memo for
/// this asset under these options (building and caching it if needed), or
/// nullptr when the source cannot help (store failure, budget exhausted) —
/// callers then fall back to plain lazy enumeration.
class AssetLadderSource {
 public:
  virtual ~AssetLadderSource() = default;
  virtual std::shared_ptr<const VariantMemo> acquire(
      const std::shared_ptr<const SourceImage>& asset, const LadderOptions& options,
      const obs::RequestContext& ctx) = 0;
};

}  // namespace aw4a::imaging
