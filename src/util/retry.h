// Bounded retry for TransientError.
//
// The serving path wraps flaky work units (codec encodes, tier builds) in
// retry_transient: a TransientError (e.g. an injected fault) is retried at
// once, up to max_attempts tries in all; every other exception —
// Infeasible, LogicError, DeadlineExceeded — propagates immediately, because
// retrying cannot fix a constraint, a bug, or an exhausted clock. There is
// no backoff: this repository is a simulation, and waiting would only slow
// builds down without changing a single byte they produce.
#pragma once

#include <string>

#include "util/error.h"

namespace aw4a {

/// Runs `fn`, retrying on TransientError, `max_attempts` tries in all
/// (>= 1). On exhaustion the last transient error is rethrown (type
/// preserved) with a "gave up after N attempts" context frame.
template <typename F>
auto retry_transient(F&& fn, int max_attempts) -> decltype(fn()) {
  AW4A_EXPECTS(max_attempts >= 1);
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (TransientError& e) {
      if (attempt >= max_attempts) {
        e.add_context("gave up after " + std::to_string(attempt) + " attempts");
        throw;
      }
    }
  }
}

}  // namespace aw4a
