#include "core/grid_search.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "util/error.h"
#include "util/fault.h"

namespace aw4a::core {
namespace {

struct Candidate {
  imaging::ImageVariant variant;
  double weighted_ssim = 0.0;  // area * ssim, the QSS numerator contribution
};

struct ImageSlot {
  const web::WebObject* object = nullptr;
  double area = 0.0;
  std::vector<Candidate> candidates;  // sorted by descending SSIM
  Bytes min_bytes = 0;
  double max_weighted = 0.0;
};

}  // namespace

GridSearchOutcome grid_search(web::ServedPage& served, Bytes target_bytes,
                              LadderCache& ladders, const GridSearchOptions& options,
                              const obs::RequestContext& ctx) {
  AW4A_EXPECTS(served.page != nullptr);
  AW4A_EXPECTS(options.levels >= 2);
  AW4A_EXPECTS(options.quality_threshold > 0.0 && options.quality_threshold < 1.0);
  AW4A_FAULT_POINT("solver.grid_search");
  AW4A_SPAN(ctx, "stage2.grid");

  const auto started = std::chrono::steady_clock::now();
  GridSearchOutcome outcome;

  // Bytes contributed by everything that is not a rich image (those
  // decisions are frozen during the search).
  const auto images = rich_images(*served.page);
  Bytes other_bytes = served.transfer_size();
  for (const web::WebObject* object : images) other_bytes -= served.object_transfer(*object);
  if (other_bytes > target_bytes && !images.empty()) {
    // Even zero-byte images cannot meet the target; still run to produce the
    // lowest-byte combination.
  }

  // Build the discretized candidate sets.
  std::vector<ImageSlot> slots;
  slots.reserve(images.size());
  for (const web::WebObject* object : images) {
    ImageSlot slot;
    slot.object = object;
    slot.area = object->image->display_area();
    auto& ladder = ladders.ladder_for(*object, ctx);
    for (int level = options.levels - 1; level >= 0; --level) {
      const double s = options.quality_threshold +
                       (1.0 - options.quality_threshold) * static_cast<double>(level) /
                           static_cast<double>(options.levels - 1);
      const auto v = ladder.cheapest_fullres_with_ssim_at_least(s, ctx);
      if (!v) continue;
      const bool duplicate = std::any_of(
          slot.candidates.begin(), slot.candidates.end(), [&](const Candidate& c) {
            return c.variant.bytes == v->bytes && std::abs(c.variant.ssim - v->ssim) < 1e-12;
          });
      if (!duplicate) slot.candidates.push_back({*v, slot.area * v->ssim});
    }
    // Placeholder rung (DESIGN.md §14): same threshold filter as the encode
    // rungs, so it only enters the move set when the search runs with an
    // ultra-low Qt — where it is byte-minimal and unlocks the deep tiers.
    if (const auto ph = ladders.placeholder_rung(*object);
        ph && ph->ssim + 1e-12 >= options.quality_threshold) {
      slot.candidates.push_back({*ph, slot.area * ph->ssim});
    }
    if (slot.candidates.empty()) {
      slot.candidates.push_back(
          {ladder.original(), slot.area * 1.0});
    }
    std::sort(slot.candidates.begin(), slot.candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.variant.ssim > b.variant.ssim;
              });
    slot.min_bytes = std::min_element(slot.candidates.begin(), slot.candidates.end(),
                                      [](const Candidate& a, const Candidate& b) {
                                        return a.variant.bytes < b.variant.bytes;
                                      })
                         ->variant.bytes;
    slot.max_weighted = slot.candidates.front().weighted_ssim;
    slots.push_back(std::move(slot));
  }

  // Search large-area images first: their SSIM dominates QSS, so bound gaps
  // close faster.
  std::sort(slots.begin(), slots.end(),
            [](const ImageSlot& a, const ImageSlot& b) { return a.area > b.area; });

  const std::size_t n = slots.size();
  double total_area = 0.0;
  for (const ImageSlot& s : slots) total_area += s.area;

  // Suffix bounds for pruning.
  std::vector<Bytes> suffix_min_bytes(n + 1, 0);
  std::vector<double> suffix_max_weighted(n + 1, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    suffix_min_bytes[i] = suffix_min_bytes[i + 1] + slots[i].min_bytes;
    suffix_max_weighted[i] = suffix_max_weighted[i + 1] + slots[i].max_weighted;
  }

  std::vector<std::size_t> choice(n, 0);
  std::vector<std::size_t> best_choice;
  double best_qss = -1.0;
  Bytes best_bytes = 0;
  std::vector<std::size_t> min_bytes_choice(n);  // fallback when infeasible
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::min_element(
        slots[i].candidates.begin(), slots[i].candidates.end(),
        [](const Candidate& a, const Candidate& b) { return a.variant.bytes < b.variant.bytes; });
    min_bytes_choice[i] = static_cast<std::size_t>(it - slots[i].candidates.begin());
  }

  const Bytes image_budget = target_bytes > other_bytes ? target_bytes - other_bytes : 0;

  // Iterative DFS with explicit bookkeeping.
  std::uint64_t nodes = 0;
  bool timed_out = false;
  const auto deadline_hit = [&] {
    if (ctx.expired()) return true;
    if (options.timeout_seconds <= 0.0) return false;
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - started);
    return elapsed.count() > options.timeout_seconds;
  };

  struct Frame {
    std::size_t slot;
    std::size_t cand;
    Bytes bytes;
    double weighted;
  };
  std::vector<Frame> stack;
  stack.push_back({0, 0, 0, 0.0});
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    // Deadline polling: cheap mask check normally, every node under very
    // tight budgets (tests exercise sub-millisecond timeouts).
    const bool poll_every_node =
        (options.timeout_seconds > 0 && options.timeout_seconds < 0.01) ||
        (ctx.has_deadline() && ctx.remaining() < 0.01);
    if (((++nodes & 1023) == 0 || poll_every_node) && deadline_hit()) {
      timed_out = true;
      break;
    }
    if (frame.slot == n) {
      if (frame.bytes <= image_budget) {
        const double qss = total_area > 0 ? frame.weighted / total_area : 1.0;
        if (qss > best_qss || (qss == best_qss && frame.bytes < best_bytes)) {
          best_qss = qss;
          best_bytes = frame.bytes;
          best_choice = choice;
        }
      }
      continue;
    }
    if (frame.cand >= slots[frame.slot].candidates.size()) continue;
    // Bound: even the best completions cannot beat the incumbent.
    if (options.branch_and_bound && best_qss >= 0.0 && total_area > 0.0) {
      const double ub =
          (frame.weighted + suffix_max_weighted[frame.slot]) / total_area;
      if (ub <= best_qss) continue;
    }
    // Re-push the "try next candidate at this slot" frame, then descend.
    stack.push_back({frame.slot, frame.cand + 1, frame.bytes, frame.weighted});
    const Candidate& c = slots[frame.slot].candidates[frame.cand];
    const Bytes bytes_here = frame.bytes + c.variant.bytes;
    const bool descend =
        options.branch_and_bound
            ? bytes_here + suffix_min_bytes[frame.slot + 1] <= image_budget
            : true;  // exhaustive mode checks feasibility only at the leaves
    if (descend) {
      choice[frame.slot] = frame.cand;
      stack.push_back({frame.slot + 1, 0, bytes_here, frame.weighted + c.weighted_ssim});
    }
    // Note: if even this candidate overflows the budget with minimal
    // completions, cheaper candidates at this slot may still fit — handled
    // by the re-pushed sibling frame.
  }

  // DFS mutates `choice` while exploring; rebuild the best assignment.
  const std::vector<std::size_t>& final_choice =
      best_qss >= 0.0 ? best_choice : min_bytes_choice;
  for (std::size_t i = 0; i < n; ++i) {
    const Candidate& c = slots[i].candidates[final_choice[i]];
    if (c.variant.is_original) {
      served.images.erase(slots[i].object->id);
    } else {
      served.images[slots[i].object->id] =
          web::ServedImage{.variant = c.variant, .dropped = false};
    }
  }

  outcome.timed_out = timed_out;
  outcome.nodes_explored = nodes;
  outcome.bytes_after = served.transfer_size();
  outcome.met_target = outcome.bytes_after <= target_bytes;
  outcome.qss = compute_qss(served);
  return outcome;
}

}  // namespace aw4a::core
