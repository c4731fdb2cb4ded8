#include "js/muzeel.h"

#include <gtest/gtest.h>

#include "js/callgraph.h"
#include "util/rng.h"

namespace aw4a::js {
namespace {

// A hand-built script with a known structure:
//   f1 (init, draws widget 100) -> f2
//   f3 (click handler)          -> f4 (draws widget 200)
//   f5 dead, f6 dead (calls f5)
//   f3 --dynamic--> f7 (draws widget 300): invisible to static analysis
Script fixture() {
  Script s;
  s.id = 1;
  auto add = [&](FunctionId id, Bytes bytes, std::vector<FunctionId> callees,
                 std::vector<FunctionId> dyn, WidgetId w) {
    JsFunction f;
    f.id = id;
    f.bytes = bytes;
    f.callees = std::move(callees);
    f.dynamic_callees = std::move(dyn);
    f.visual_widget = w;
    s.functions.push_back(std::move(f));
  };
  add(1, 1000, {2}, {}, 100);
  add(2, 500, {}, {}, 0);
  add(3, 800, {4}, {7}, 0);
  add(4, 700, {}, {}, 200);
  add(5, 900, {}, {}, 0);
  add(6, 600, {5}, {}, 0);
  add(7, 400, {}, {}, 300);
  s.init_functions = {1};
  s.bindings = {{EventKind::kClick, 3}};
  return s;
}

TEST(Muzeel, KeepsStaticallyReachableOnly) {
  const MuzeelResult r = muzeel_eliminate(fixture());
  EXPECT_EQ(r.kept, (std::set<FunctionId>{1, 2, 3, 4}));
  EXPECT_EQ(r.reduced.functions.size(), 4u);
  EXPECT_EQ(r.removed_bytes, 900u + 600u + 400u);
}

TEST(Muzeel, FlagsDynamicallyReachableRemovalsAsBroken) {
  const MuzeelResult r = muzeel_eliminate(fixture());
  // f7 is runtime-reachable via the dynamic edge from f3 but was removed.
  EXPECT_EQ(r.broken, (std::set<FunctionId>{7}));
}

TEST(Muzeel, ReducedScriptPreservesBindingsAndIds) {
  const Script original = fixture();
  const MuzeelResult r = muzeel_eliminate(original);
  EXPECT_EQ(r.reduced.id, original.id);
  EXPECT_EQ(r.reduced.bindings.size(), original.bindings.size());
  EXPECT_NE(r.reduced.find(3), nullptr);
  EXPECT_EQ(r.reduced.find(5), nullptr);
}

TEST(Muzeel, IdempotentOnCleanScripts) {
  const MuzeelResult first = muzeel_eliminate(fixture());
  const MuzeelResult second = muzeel_eliminate(first.reduced);
  EXPECT_EQ(second.removed_bytes, 0u);
  EXPECT_EQ(second.reduced.functions.size(), first.reduced.functions.size());
}

TEST(Muzeel, SyntheticScriptsShrinkAndMostlyDontBreak) {
  int broken_scripts = 0;
  Bytes total_before = 0;
  Bytes total_after = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    ScriptSynthOptions options;
    options.target_bytes = 60 * kKB;
    const Script s = synth_script(rng, options);
    const MuzeelResult r = muzeel_eliminate(s);
    total_before += s.total_bytes();
    total_after += r.reduced.total_bytes();
    if (!r.broken.empty()) ++broken_scripts;
  }
  // Dead-code elimination removes a substantial share (dead_fraction ~0.45)..
  EXPECT_LT(total_after, total_before * 4 / 5);
  // ..and dynamic-dispatch breakage is the exception, not the rule.
  EXPECT_LT(broken_scripts, 12);
}

}  // namespace
}  // namespace aw4a::js
