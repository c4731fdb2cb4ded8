// Minimal deterministic parallel-for, running on the persistent pool in
// util/thread_pool.h.
//
// The cross-country experiments are embarrassingly parallel (each country's
// corpus is generated from its own RNG stream), so the analysis layer runs
// them across the pool. Results are written into pre-sized slots by
// index — output order, and therefore every downstream number, is identical
// to the serial run.
#pragma once

#include <cstddef>
#include <functional>

#include "util/error.h"

namespace aw4a {

/// Default worker count of parallel_for: hardware concurrency, min 1. There
/// is deliberately no process-wide override, which concurrent callers would
/// race on; callers that need a specific count pass it per call, e.g.
/// core::LadderCache::prewarm's `workers` argument.
unsigned parallel_workers();

/// Runs body(i) for i in [0, count) across the shared thread pool. The body
/// must only touch state owned by index i (no locks are provided on purpose
/// — the callers' work units are independent by construction). A throwing
/// body cancels all not-yet-claimed items; after every in-flight body
/// finishes, a single failure is rethrown with its type preserved, and
/// multiple concurrent failures are aggregated into one aw4a::Error listing
/// every message (sorted, so the report is deterministic).
///
/// Worker-count clamp:
///   workers == 0   uses parallel_workers()
///   workers == 1   runs every item inline on the calling thread — no pool
///                  submission, no cross-thread round-trip (count == 0 or 1
///                  degenerates the same way)
///   workers >= 2   submits workers-1 pool runners AND runs the claim loop
///                  on the calling thread; the pool grows to satisfy the
///                  pinned count, so a pinned 4 really is 4-way even on one
///                  core
/// The calling thread always participates, which is what makes calling
/// parallel_for from inside a parallel_for body (i.e. from a pool worker)
/// deadlock-free: no job's completion waits on the pool scheduling anything.
///
/// `cancelled`, when provided, is polled before each item is claimed (on
/// every participating thread). Once it returns true, no further items
/// start — items already executing finish normally — and the call throws
/// DeadlineExceeded. Callers pass a poll of their RequestContext, e.g.
/// `[&ctx] { return ctx.expired(); }`; the indirection
/// keeps util below obs in the layering.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned workers = 0, const std::function<bool()>& cancelled = {});

}  // namespace aw4a
