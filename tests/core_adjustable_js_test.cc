#include "core/adjustable_js.h"

#include <gtest/gtest.h>

#include "core/hbs.h"
#include "dataset/corpus.h"
#include "js/callgraph.h"
#include "util/rng.h"

namespace aw4a::core {
namespace {

web::WebPage rich_page(std::uint64_t seed = 90) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(2.0), gen.global_profile());
}

TEST(AdjustableJs, TrivialTargetIsNoOp) {
  const web::WebPage page = rich_page();
  web::ServedPage served = web::serve_original(page);
  const auto outcome = apply_adjustable_js(served, page.transfer_size());
  EXPECT_TRUE(outcome.met_target);
  EXPECT_EQ(outcome.functions_removed, 0);
  EXPECT_TRUE(served.scripts.empty());
}

TEST(AdjustableJs, StopsAtTargetInsteadOfOvershooting) {
  const web::WebPage page = rich_page();
  // A target Muzeel would overshoot: halfway between original and full-dead-
  // code removal.
  web::ServedPage muzeel_probe = web::serve_original(page);
  apply_muzeel(muzeel_probe);
  const Bytes full = page.transfer_size();
  const Bytes muzeel = muzeel_probe.transfer_size();
  ASSERT_LT(muzeel, full);
  const Bytes target = (full + muzeel) / 2;

  web::ServedPage served = web::serve_original(page);
  const auto outcome = apply_adjustable_js(served, target);
  EXPECT_TRUE(outcome.met_target);
  EXPECT_LE(outcome.bytes_after, target);
  // Overshoot bounded by one function's bytes, not Muzeel's full sweep.
  EXPECT_GT(outcome.bytes_after, muzeel);
}

TEST(AdjustableJs, NeverRemovesStaticallyLiveCode) {
  const web::WebPage page = rich_page(91);
  web::ServedPage served = web::serve_original(page);
  apply_adjustable_js(served, 1);  // impossible target: removes all it can
  for (const auto& [object_id, decision] : served.scripts) {
    const web::WebObject* object = page.find(object_id);
    ASSERT_NE(object, nullptr);
    const auto live =
        js::reachable_static(*object->script, js::all_roots(*object->script));
    for (js::FunctionId f : live) {
      EXPECT_TRUE(decision.live.count(f)) << "live function removed";
    }
  }
}

TEST(AdjustableJs, FloorMatchesMuzeel) {
  // With an impossible target, adjustable removal converges to Muzeel's
  // floor (all statically dead code gone).
  const web::WebPage page = rich_page(92);
  web::ServedPage adjustable = web::serve_original(page);
  apply_adjustable_js(adjustable, 1);
  web::ServedPage muzeel = web::serve_original(page);
  apply_muzeel(muzeel);
  // Both touch only scripts, so equal page bytes mean equal script bytes.
  EXPECT_EQ(adjustable.transfer_size(), muzeel.transfer_size());
}

TEST(AdjustableJs, SafeFunctionsRemovedBeforeRiskyOnes) {
  const web::WebPage page = rich_page(93);
  // Mild target: only part of the dead code needs to go.
  web::ServedPage muzeel_probe = web::serve_original(page);
  apply_muzeel(muzeel_probe);
  const Bytes target =
      page.transfer_size() - (page.transfer_size() - muzeel_probe.transfer_size()) / 4;
  web::ServedPage served = web::serve_original(page);
  const auto outcome = apply_adjustable_js(served, target);
  ASSERT_TRUE(outcome.met_target);
  // If any risky function was removed, every safe one must be gone already —
  // with only a quarter of the dead bytes needed, none should be risky.
  EXPECT_EQ(outcome.risky_removed, 0);
}

TEST(AdjustableJs, ByteAccountingConsistent) {
  const web::WebPage page = rich_page(94);
  web::ServedPage served = web::serve_original(page);
  const Bytes before = served.transfer_size();
  const auto outcome = apply_adjustable_js(served, before * 85 / 100);
  EXPECT_EQ(outcome.bytes_after, served.transfer_size());
  for (const auto& [object_id, decision] : served.scripts) {
    const web::WebObject* object = page.find(object_id);
    EXPECT_EQ(decision.raw_bytes, js::bytes_of(*object->script, decision.live));
    EXPECT_EQ(decision.transfer_bytes, object->script_transfer_for(decision.raw_bytes));
  }
}

TEST(AdjustableJs, HbsIntegrationReducesOvershoot) {
  const web::WebPage page = rich_page(95);
  const Bytes target = page.transfer_size() * 7 / 10;
  LadderCache ladders_a;
  LadderCache ladders_b;
  HbsOptions muzeel_options;
  muzeel_options.measure_qfs = false;
  HbsOptions adj_options;
  adj_options.measure_qfs = false;
  adj_options.js_strategy = HbsOptions::JsStrategy::kAdjustable;
  const auto with_muzeel =
      hbs_transcode(page, web::serve_original(page), target, ladders_a, muzeel_options);
  const auto with_adjustable =
      hbs_transcode(page, web::serve_original(page), target, ladders_b, adj_options);
  if (with_muzeel.met_target && with_adjustable.met_target) {
    // Adjustable lands at least as close to the target from below.
    EXPECT_GE(with_adjustable.result_bytes + 1, with_muzeel.result_bytes);
  }
  EXPECT_NE(with_adjustable.algorithm.find("hbs/"), std::string::npos);
}

}  // namespace
}  // namespace aw4a::core
