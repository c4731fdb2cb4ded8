// The end-to-end AW4A pipeline (paper Fig. 5) and the developer API (§5.4).
//
// Given a page and a target size (from the PAW index or chosen by the
// developer), the pipeline runs Stage-1 (lossless optimizations), checks the
// target, and only then invokes Stage-2 (HBS by default, Grid Search
// optionally). Developers configure object weights, the minimum image
// quality threshold, and the set of low-complexity tiers to pre-generate.
#pragma once

#include <optional>
#include <vector>

#include "core/grid_search.h"
#include "core/hbs.h"
#include "core/paw.h"
#include "core/stage1.h"

namespace aw4a::core {

/// §5.4's developer-facing knobs.
struct DeveloperConfig {
  /// Page-size reduction factors to pre-generate as tiers (the user study's
  /// ladder by default).
  std::vector<double> tier_reductions = {1.25, 1.5, 3.0, 6.0};
  /// Minimum acceptable image quality (SSIM), the paper's Qt.
  double min_image_ssim = 0.9;
  /// Relative importance of looks (QSS) vs functionality (QFS).
  QualityWeights quality_weights;
  /// RBR heuristic weights.
  double rbr_area_weight = 0.5;
  double rbr_bytes_efficiency_weight = 0.5;
  /// Stage-2 solver.
  enum class Stage2 { kHbs, kGridSearch } stage2 = Stage2::kHbs;
  /// Grid Search budget when selected.
  double grid_timeout_seconds = 10.0;
  Stage1Options stage1;
  /// Measure QFS on results (bot + screenshots).
  bool measure_qfs = true;
  /// JS stage of HBS approach A (kAdjustable avoids Muzeel's overshoot).
  HbsOptions::JsStrategy js_strategy = HbsOptions::JsStrategy::kMuzeel;
  /// Wall-clock budget for transcoding; negative disables the deadline.
  /// Seeds the request context's deadline (see make_context), so one budget
  /// uniformly bounds Stage-1, both Stage-2 solvers, and — through
  /// build_tiers — the whole cold build. When exhausted (or when Stage-2
  /// fails), the Stage-1 anytime result is returned with `degraded` set — a
  /// deadline is never surfaced as a DeadlineExceeded to the serving path.
  double stage2_deadline_seconds = -1.0;
  /// Entropy coder of the lossy codec family for every variant measured
  /// under this config (DESIGN.md §13): kHuffman is the analytic cost
  /// model, kRans actually entropy-codes the coefficients (fewer bytes at
  /// identical SSIM, more encode CPU). Flows into ladder_options() and IS
  /// part of the config fingerprint — cached tiers and asset-store recipes
  /// built under different backends never mix.
  imaging::EntropyBackend entropy_backend = imaging::EntropyBackend::kHuffman;
  /// The ultra-low tiers below the image ladder (DESIGN.md §14). Both off by
  /// default: every pre-existing image-only config builds a bit-identical
  /// ladder. Both knobs are part of the serving config fingerprint.
  struct UltraLowTierOptions {
    /// Append the text-only tier: Stage-1, every image replaced by its
    /// alt-text placeholder rung, media/iframes shed; scripts are kept, so
    /// functionality (QFS) survives intact.
    bool text_only = false;
    /// Append the markup-rewrite tier: the whole page collapsed into one
    /// self-contained AWML blob (web/markup.h) — the deepest rung.
    bool markup_rewrite = false;

    bool any() const { return text_only || markup_rewrite; }
  };
  UltraLowTierOptions ultra_low;
};

/// What a tier fundamentally serves: image-rung reductions of the original
/// page, or one of the ultra-low representations below the image ladder.
enum class TierKind { kImage, kTextOnly, kMarkupRewrite };

const char* to_string(TierKind kind);

/// One pre-generated low-complexity version of a page.
struct Tier {
  double requested_reduction = 1.0;
  TierKind kind = TierKind::kImage;
  TranscodeResult result;
  /// False when this tier's own transcode failed and `result` was borrowed
  /// from the nearest coarser built tier (the degradation ladder).
  bool built = true;
  /// Failure/fallback provenance when !built or result.degraded.
  std::string note;

  double achieved_reduction() const {
    return result.result_bytes == 0 ? 0.0 : result.reduction_factor();
  }
  double savings_fraction() const {
    return result.served.page == nullptr || result.served.page->transfer_size() == 0
               ? 0.0
               : 1.0 - static_cast<double>(result.result_bytes) /
                           static_cast<double>(result.served.page->transfer_size());
  }
};

class Aw4aPipeline {
 public:
  explicit Aw4aPipeline(DeveloperConfig config = {});

  const DeveloperConfig& config() const { return config_; }

  /// Context seeded from this config: deadline from stage2_deadline_seconds
  /// (when >= 0). The single-shot entry points below call this; callers that
  /// need tracing or a caller-owned deadline build on top of it (or pass
  /// their own context to the ctx overloads).
  obs::RequestContext make_context() const;

  /// Fig. 5 end-to-end: Stage-1, then Stage-2 if the target is unmet.
  /// Degradation contract: a Stage-2 failure (any aw4a::Error, e.g. an
  /// injected codec fault) or an exhausted context deadline returns the
  /// Stage-1 result with `degraded` set instead of throwing. A Stage-1
  /// failure still throws — there is no coarser anytime result to serve —
  /// and is handled by build_tiers' ladder.
  TranscodeResult transcode_to_target(const web::WebPage& page, Bytes target_bytes) const;

  /// Same pipeline, but enumerating image variants through a caller-owned
  /// ladder cache. build_tiers threads one cache through every tier so the
  /// variant space — identical across tiers, only the byte target differs —
  /// is encoded and measured once instead of once per tier. The cache must
  /// have been created with ladder_options() (checked).
  TranscodeResult transcode_to_target(const web::WebPage& page, Bytes target_bytes,
                                      LadderCache& ladders) const;

  /// Explicit-context variants: deadline and tracing both come from `ctx`
  /// (the config's stage2_deadline_seconds is NOT consulted — the caller
  /// owns the budget).
  TranscodeResult transcode_to_target(const web::WebPage& page, Bytes target_bytes,
                                      const obs::RequestContext& ctx) const;
  TranscodeResult transcode_to_target(const web::WebPage& page, Bytes target_bytes,
                                      LadderCache& ladders,
                                      const obs::RequestContext& ctx) const;

  /// Ladder enumeration options implied by this config: families stop at the
  /// first rung below Qt, the rung every solver breaks on. A LadderCache
  /// shared across calls must be built with exactly these options.
  imaging::LadderOptions ladder_options() const;

  /// Pre-generates the configured tiers of a page. A tier that fails borrows
  /// the result of the nearest coarser built tier (marked !built). Throws
  /// aw4a::Error only when *no* tier could be built at all, with every
  /// per-tier failure aggregated into the message.
  std::vector<Tier> build_tiers(const web::WebPage& page) const;

  /// Explicit-context build: ONE context bounds the whole build, so a
  /// deadline is shared across all tiers (later tiers degrade to their
  /// Stage-1 result when earlier ones consumed the budget) rather than reset
  /// per tier. Variant families are enumerated lazily, as the solvers ask
  /// for them (LadderCache::prewarm is the parallel warm, for benches and
  /// tests). An optional AssetLadderSource (the serving asset store) is
  /// consulted per image by content before any enumeration; nullptr builds
  /// locally.
  std::vector<Tier> build_tiers(const web::WebPage& page,
                                const obs::RequestContext& ctx,
                                imaging::AssetLadderSource* assets = nullptr) const;

 private:
  DeveloperConfig config_;
};

}  // namespace aw4a::core
