#include "core/pipeline.h"

#include <sstream>

#include "core/ultra_low.h"
#include "util/error.h"
#include "util/table.h"

namespace aw4a::core {

const char* to_string(TierKind kind) {
  switch (kind) {
    case TierKind::kImage: return "image";
    case TierKind::kTextOnly: return "text-only";
    case TierKind::kMarkupRewrite: return "markup-rewrite";
  }
  return "?";
}

Aw4aPipeline::Aw4aPipeline(DeveloperConfig config) : config_(std::move(config)) {
  AW4A_EXPECTS(config_.min_image_ssim > 0.0 && config_.min_image_ssim < 1.0);
}

imaging::LadderOptions Aw4aPipeline::ladder_options() const {
  imaging::LadderOptions options;
  // Every consumer (RBR, Bytes Efficiency, Grid Search and knapsack at
  // targets >= Qt) stops at the first rung below Qt, so nothing deeper is
  // measured.
  options.min_ssim = config_.min_image_ssim;
  options.entropy_backend = config_.entropy_backend;
  // Ultra-low tiers extend the rung space with the placeholder rung; with
  // both tiers off it stays off, so image-only configs enumerate (and
  // fingerprint) exactly the pre-§14 ladder.
  options.placeholder_rung = config_.ultra_low.any();
  return options;
}

obs::RequestContext Aw4aPipeline::make_context() const {
  obs::RequestContext ctx;
  if (config_.stage2_deadline_seconds >= 0.0) {
    ctx = ctx.with_deadline_after(config_.stage2_deadline_seconds);
  }
  return ctx;
}

TranscodeResult Aw4aPipeline::transcode_to_target(const web::WebPage& page,
                                                  Bytes target_bytes) const {
  return transcode_to_target(page, target_bytes, make_context());
}

TranscodeResult Aw4aPipeline::transcode_to_target(const web::WebPage& page, Bytes target_bytes,
                                                  LadderCache& ladders) const {
  return transcode_to_target(page, target_bytes, ladders, make_context());
}

TranscodeResult Aw4aPipeline::transcode_to_target(const web::WebPage& page, Bytes target_bytes,
                                                  const obs::RequestContext& ctx) const {
  LadderCache ladders(ladder_options());
  return transcode_to_target(page, target_bytes, ladders, ctx);
}

TranscodeResult Aw4aPipeline::transcode_to_target(const web::WebPage& page, Bytes target_bytes,
                                                  LadderCache& ladders,
                                                  const obs::RequestContext& ctx) const {
  // A cache enumerated under different options would hand the solvers a
  // different variant space than a fresh run — reject the mismatch up front.
  AW4A_EXPECTS(ladders.options().min_ssim == ladder_options().min_ssim);
  AW4A_EXPECTS(ladders.options().entropy_backend == ladder_options().entropy_backend);
  const double started = ctx.now();
  auto elapsed = [&] { return ctx.now() - started; };

  web::ServedPage served = web::serve_original(page);
  // Stage-1 is itself anytime (it stops between objects), but a deadline
  // firing *inside* a ladder measurement surfaces as DeadlineExceeded; the
  // decisions recorded so far are still each individually safe, so keep them
  // as the anytime state rather than rethrowing.
  try {
    apply_stage1(served, ladders, config_.stage1, ctx);
  } catch (const DeadlineExceeded&) {
  }

  // The Stage-1 state is the pipeline's anytime result: every path below —
  // target already met, Stage-2 success, Stage-2 failure, exhausted deadline
  // — serves either it or something strictly better.
  auto stage1_result = [&](web::ServedPage snapshot, const char* algorithm) {
    TranscodeResult result;
    result.served = std::move(snapshot);
    result.result_bytes = result.served.transfer_size();
    result.target_bytes = target_bytes;
    result.met_target = result.result_bytes <= target_bytes;
    result.quality = evaluate_quality(result.served, config_.quality_weights,
                                      config_.measure_qfs, &ladders.qfs(page));
    result.algorithm = algorithm;
    result.elapsed_seconds = elapsed();
    return result;
  };

  if (served.transfer_size() <= target_bytes) {
    return stage1_result(std::move(served), "stage1");
  }

  auto degrade = [&](const std::string& reason) {
    TranscodeResult result = stage1_result(served, "stage1(degraded)");
    result.degraded = true;
    result.degradation_reason = reason;
    return result;
  };
  if (ctx.expired()) {
    std::string reason = "stage-2 deadline exhausted after stage-1";
    if (config_.stage2_deadline_seconds >= 0.0) {
      reason += " (" + fmt(config_.stage2_deadline_seconds, 3) + "s)";
    }
    return degrade(reason);
  }

  try {
    if (config_.stage2 == DeveloperConfig::Stage2::kGridSearch) {
      GridSearchOptions gs;
      gs.quality_threshold = config_.min_image_ssim;
      gs.timeout_seconds = config_.grid_timeout_seconds;
      web::ServedPage working = served;
      // The context deadline bounds the DFS directly (grid_search polls
      // ctx.expired()), so no per-call timeout tightening is needed.
      const GridSearchOutcome outcome = grid_search(working, target_bytes, ladders, gs, ctx);
      TranscodeResult result;
      result.served = std::move(working);
      result.result_bytes = outcome.bytes_after;
      result.target_bytes = target_bytes;
      result.met_target = outcome.met_target;
      result.quality = evaluate_quality(result.served, config_.quality_weights,
                                        config_.measure_qfs, &ladders.qfs(page));
      result.algorithm =
          outcome.timed_out ? "stage1+grid-search(timeout)" : "stage1+grid-search";
      result.elapsed_seconds = elapsed();
      return result;
    }

    HbsOptions hbs;
    hbs.rbr.quality_threshold = config_.min_image_ssim;
    hbs.rbr.area_weight = config_.rbr_area_weight;
    hbs.rbr.bytes_efficiency_weight = config_.rbr_bytes_efficiency_weight;
    hbs.quality_weights = config_.quality_weights;
    hbs.measure_qfs = config_.measure_qfs;
    hbs.js_strategy = config_.js_strategy;
    web::ServedPage working = served;
    TranscodeResult result =
        hbs_transcode(page, std::move(working), target_bytes, ladders, hbs, ctx);
    result.algorithm = "stage1+" + result.algorithm;
    result.elapsed_seconds = elapsed();
    return result;
  } catch (const DeadlineExceeded& e) {
    return degrade(e.what());
  } catch (const Error& e) {
    return degrade(std::string("stage-2 failed: ") + e.what());
  }
}

std::vector<Tier> Aw4aPipeline::build_tiers(const web::WebPage& page) const {
  return build_tiers(page, make_context());
}

std::vector<Tier> Aw4aPipeline::build_tiers(const web::WebPage& page,
                                            const obs::RequestContext& ctx,
                                            imaging::AssetLadderSource* assets) const {
  AW4A_SPAN(ctx, "build_tiers");
  std::vector<Tier> tiers;
  tiers.reserve(config_.tier_reductions.size());
  const Bytes original = page.transfer_size();

  // One ladder cache for the whole build: every tier searches the identical
  // variant space (only the byte target differs), so sharing makes tiers
  // after the first skip all encode+SSIM work.
  LadderCache ladders(ladder_options(), assets);

  std::size_t built_count = 0;
  for (double reduction : config_.tier_reductions) {
    AW4A_EXPECTS(reduction >= 1.0);
    const Bytes target =
        static_cast<Bytes>(static_cast<double>(original) / reduction);
    Tier tier;
    tier.requested_reduction = reduction;
    const std::string label = "tier " + fmt(reduction, 2) + "x";
    try {
      // The ONE context is shared across tiers: a deadline bounds the whole
      // build, so tiers after exhaustion degrade to their Stage-1 result.
      tier.result = with_context(
          label, [&] { return transcode_to_target(page, target, ladders, ctx); });
      if (tier.result.degraded) tier.note = tier.result.degradation_reason;
      ++built_count;
    } catch (const Error& e) {
      tier.built = false;
      tier.note = e.what();
    }
    tiers.push_back(std::move(tier));
  }

  if (built_count == 0) {
    std::ostringstream all;
    all << "all " << tiers.size() << " tiers failed to build:";
    for (const Tier& tier : tiers) all << "\n  - " << tier.note;
    throw Error(all.str());
  }

  // Degradation ladder: a failed tier serves the nearest coarser (milder)
  // built tier's result — over-serving bytes is safe, under-serving quality
  // is not. With no coarser tier built, the nearest deeper one steps in.
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    if (tiers[i].built) continue;
    std::size_t source = tiers.size();
    for (std::size_t j = i; j-- > 0;) {
      if (tiers[j].built) {
        source = j;
        break;
      }
    }
    if (source == tiers.size()) {
      for (std::size_t j = i + 1; j < tiers.size(); ++j) {
        if (tiers[j].built) {
          source = j;
          break;
        }
      }
    }
    tiers[i].result = tiers[source].result;
    tiers[i].note = "fell back to tier " + fmt(tiers[source].requested_reduction, 2) +
                    "x (" + tiers[i].note + ")";
  }

  // Ultra-low tiers (DESIGN.md §14), appended below the deepest image tier.
  // Their "requested" reduction is whatever they achieve — they are
  // constructions, not target searches. A failed ultra tier borrows the
  // deepest built image tier's result, mirroring the ladder above (serving
  // milder is safe; a missing tier index is not).
  auto append_ultra = [&](TierKind kind, auto&& build) {
    Tier tier;
    tier.kind = kind;
    try {
      tier.result = with_context(to_string(kind), [&] { return build(); });
      tier.requested_reduction = std::max(1.0, tier.result.reduction_factor());
      if (tier.result.degraded) tier.note = tier.result.degradation_reason;
    } catch (const Error& e) {
      std::size_t source = tiers.size();
      for (std::size_t j = tiers.size(); j-- > 0;) {
        if (tiers[j].built && tiers[j].kind == TierKind::kImage) {
          source = j;
          break;
        }
      }
      AW4A_EXPECTS(source < tiers.size());  // built_count > 0 guarantees one
      tier.built = false;
      tier.result = tiers[source].result;
      tier.requested_reduction = tiers[source].requested_reduction;
      tier.note = std::string("fell back to tier ") +
                  fmt(tiers[source].requested_reduction, 2) + "x (" + e.what() + ")";
    }
    tiers.push_back(std::move(tier));
  };
  if (config_.ultra_low.text_only) {
    append_ultra(TierKind::kTextOnly, [&] {
      return build_text_only(page, ladders, config_.stage1, config_.quality_weights,
                             config_.measure_qfs, ctx);
    });
  }
  if (config_.ultra_low.markup_rewrite) {
    append_ultra(TierKind::kMarkupRewrite, [&] {
      return build_markup_rewrite(page, ladder_options(), config_.quality_weights,
                                  config_.measure_qfs, ctx);
    });
  }
  return tiers;
}

}  // namespace aw4a::core
