// Muzeel-style JavaScript dead-code elimination (Kupoluyi et al., IMC '22),
// the JS stage of HBS.
//
// Muzeel drives a browser bot that triggers every event on the page, then
// removes functions that are never exercised and all their exclusive
// dependents. We model that as static reachability from the script's roots
// (init + every event handler): functions outside the statically reachable
// set are removed. Dynamic call edges are invisible to the analysis, so a
// removed function may in truth be runtime-reachable — those are the cases
// where elimination visibly breaks a widget, which QFS then catches.
#pragma once

#include <set>

#include "js/script.h"

namespace aw4a::js {

/// Result of eliminating dead code from one script.
struct MuzeelResult {
  Script reduced;                      ///< script with dead functions removed
  Bytes removed_bytes = 0;
  std::set<FunctionId> kept;           ///< statically reachable set
  /// Runtime-reachable functions that were removed anyway (via dynamic
  /// edges): each corresponds to potentially broken behaviour.
  std::set<FunctionId> broken;
};

/// Runs the elimination. Deterministic; does not modify the input.
MuzeelResult muzeel_eliminate(const Script& script);

/// Static summary of a script's code health — what an operator dashboard
/// shows before deciding on a JS reduction strategy.
struct CoverageReport {
  std::size_t total_functions = 0;
  std::size_t live_functions = 0;      ///< statically reachable
  std::size_t dead_functions = 0;      ///< removable by Muzeel
  std::size_t risky_functions = 0;     ///< dead statically, reachable dynamically
  Bytes total_bytes = 0;
  Bytes dead_bytes = 0;
  Bytes risky_bytes = 0;
};

/// Computes the coverage summary of one script.
CoverageReport coverage(const Script& script);

}  // namespace aw4a::js
