#include "core/hbs.h"

#include <chrono>

#include "core/adjustable_js.h"
#include "js/muzeel.h"
#include "util/error.h"
#include "util/fault.h"

namespace aw4a::core {

Bytes apply_muzeel(web::ServedPage& served) {
  AW4A_EXPECTS(served.page != nullptr);
  Bytes saved = 0;
  for (const auto& object : served.page->objects) {
    if (object.type != web::ObjectType::kJs || object.script == nullptr) continue;
    if (served.is_dropped(object.id)) continue;
    const js::MuzeelResult result = js::muzeel_eliminate(*object.script);
    const Bytes live_raw = result.reduced.total_bytes();
    web::ServedScript decision;
    decision.live = result.kept;
    decision.raw_bytes = live_raw;
    decision.transfer_bytes = object.script_transfer_for(live_raw);
    const Bytes before = served.object_transfer(object);
    served.scripts[object.id] = std::move(decision);
    const Bytes after = served.object_transfer(object);
    saved += before > after ? before - after : 0;
  }
  return saved;
}

TranscodeResult hbs_transcode(const web::WebPage& page, web::ServedPage base,
                              Bytes target_bytes, LadderCache& ladders,
                              const HbsOptions& options, const obs::RequestContext& ctx) {
  AW4A_EXPECTS(base.page == &page);
  AW4A_FAULT_POINT("solver.hbs");
  AW4A_SPAN(ctx, "stage2.hbs");
  const double started = ctx.now();

  auto finish = [&](web::ServedPage served, const char* algorithm) {
    TranscodeResult result;
    result.served = std::move(served);
    result.result_bytes = result.served.transfer_size();
    result.target_bytes = target_bytes;
    result.met_target = result.result_bytes <= target_bytes;
    result.quality = evaluate_quality(result.served, options.quality_weights,
                                      options.measure_qfs, &ladders.qfs(page));
    result.algorithm = algorithm;
    result.elapsed_seconds = ctx.now() - started;
    return result;
  };

  if (options.media.enabled) {
    apply_media_reduction(base, target_bytes, options.media);
  }

  // Approach A: JS reduction, then RBR if still over target.
  web::ServedPage approach_a = base;
  if (options.js_strategy == HbsOptions::JsStrategy::kAdjustable) {
    apply_adjustable_js(approach_a, target_bytes);
  } else {
    apply_muzeel(approach_a);
  }
  if (approach_a.transfer_size() > target_bytes) {
    rank_based_reduce(approach_a, target_bytes, ladders, options.rbr, ctx);
  }

  // Anytime: no budget left for approach B — serve what A reached (the
  // comparison below would see an un-run B anyway).
  if (ctx.expired()) {
    return finish(std::move(approach_a),
                  options.js_strategy == HbsOptions::JsStrategy::kAdjustable
                      ? "hbs/adjustable-js+rbr"
                      : "hbs/muzeel+rbr");
  }

  // Approach B: RBR only.
  web::ServedPage approach_b = base;
  rank_based_reduce(approach_b, target_bytes, ladders, options.rbr, ctx);

  const bool a_meets = approach_a.transfer_size() <= target_bytes;
  const bool b_meets = approach_b.transfer_size() <= target_bytes;
  if (a_meets && b_meets) {
    // Both feasible: serve the higher-quality page.
    const char* a_name = options.js_strategy == HbsOptions::JsStrategy::kAdjustable
                            ? "hbs/adjustable-js+rbr"
                            : "hbs/muzeel+rbr";
    TranscodeResult ra = finish(std::move(approach_a), a_name);
    TranscodeResult rb = finish(std::move(approach_b), "hbs/rbr");
    return ra.quality.quality >= rb.quality.quality ? std::move(ra) : std::move(rb);
  }
  if (a_meets) {
    return finish(std::move(approach_a),
                  options.js_strategy == HbsOptions::JsStrategy::kAdjustable
                      ? "hbs/adjustable-js+rbr"
                      : "hbs/muzeel+rbr");
  }
  if (b_meets) return finish(std::move(approach_b), "hbs/rbr");
  // Neither meets the target under the quality constraints: serve the
  // smaller page (the paper's evaluation reports such pages as misses).
  if (approach_a.transfer_size() <= approach_b.transfer_size()) {
    return finish(std::move(approach_a),
                  options.js_strategy == HbsOptions::JsStrategy::kAdjustable
                      ? "hbs/adjustable-js+rbr"
                      : "hbs/muzeel+rbr");
  }
  return finish(std::move(approach_b), "hbs/rbr");
}

}  // namespace aw4a::core
