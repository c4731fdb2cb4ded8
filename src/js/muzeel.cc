#include "js/muzeel.h"

#include <algorithm>

#include "js/callgraph.h"
#include "util/fault.h"

namespace aw4a::js {

MuzeelResult muzeel_eliminate(const Script& script) {
  AW4A_FAULT_POINT("js.muzeel.eliminate");
  MuzeelResult result;
  const std::vector<FunctionId> roots = all_roots(script);
  result.kept = reachable_static(script, roots);
  const std::set<FunctionId> runtime = reachable_runtime(script, roots);

  result.reduced = script;
  result.reduced.functions.clear();
  for (const JsFunction& f : script.functions) {
    if (result.kept.count(f.id)) {
      result.reduced.functions.push_back(f);
    } else {
      result.removed_bytes += f.bytes;
      if (runtime.count(f.id)) result.broken.insert(f.id);
    }
  }
  return result;
}

CoverageReport coverage(const Script& script) {
  CoverageReport report;
  const std::vector<FunctionId> roots = all_roots(script);
  const auto statically_live = reachable_static(script, roots);
  const auto runtime_live = reachable_runtime(script, roots);
  for (const JsFunction& f : script.functions) {
    ++report.total_functions;
    report.total_bytes += f.bytes;
    if (statically_live.count(f.id)) {
      ++report.live_functions;
      continue;
    }
    ++report.dead_functions;
    report.dead_bytes += f.bytes;
    if (runtime_live.count(f.id)) {
      ++report.risky_functions;
      report.risky_bytes += f.bytes;
    }
  }
  return report;
}

}  // namespace aw4a::js
