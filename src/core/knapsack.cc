#include "core/knapsack.h"

#include <algorithm>
#include <limits>

#include "util/error.h"
#include "util/fault.h"

namespace aw4a::core {
namespace {

struct Candidate {
  imaging::ImageVariant variant;
  double value = 0.0;       // area * ssim
  std::size_t cost = 0;     // byte buckets, rounded UP (never under-counts)
};

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

KnapsackOutcome knapsack_optimize(web::ServedPage& served, Bytes target_bytes,
                                  LadderCache& ladders, const KnapsackOptions& options,
                                  const obs::RequestContext& ctx) {
  AW4A_EXPECTS(served.page != nullptr);
  AW4A_EXPECTS(options.levels >= 2);
  AW4A_EXPECTS(options.byte_granularity > 0);
  AW4A_FAULT_POINT("solver.knapsack");
  AW4A_SPAN(ctx, "stage2.knapsack");
  KnapsackOutcome outcome;

  const auto images = rich_images(*served.page);
  Bytes other_bytes = served.transfer_size();
  for (const web::WebObject* object : images) other_bytes -= served.object_transfer(*object);

  // Grid Search's candidate set per image (full-resolution variants at the
  // discretized SSIM levels), bucketed by cost.
  std::vector<std::vector<Candidate>> slots;
  double total_area = 0.0;
  for (const web::WebObject* object : images) {
    auto& ladder = ladders.ladder_for(*object, ctx);
    const double area = object->image->display_area();
    total_area += area;
    std::vector<Candidate> cands;
    for (int level = options.levels - 1; level >= 0; --level) {
      const double s = options.quality_threshold +
                       (1.0 - options.quality_threshold) * static_cast<double>(level) /
                           static_cast<double>(options.levels - 1);
      const auto v = ladder.cheapest_fullres_with_ssim_at_least(s, ctx);
      if (!v) continue;
      const std::size_t cost =
          static_cast<std::size_t>((v->bytes + options.byte_granularity - 1) /
                                   options.byte_granularity);
      const bool duplicate =
          std::any_of(cands.begin(), cands.end(), [&](const Candidate& c) {
            return c.cost == cost && std::abs(c.variant.ssim - v->ssim) < 1e-12;
          });
      if (!duplicate) cands.push_back({*v, area * v->ssim, cost});
    }
    // The heterogeneous rung space (DESIGN.md §14): the placeholder rung
    // joins the multiple-choice group under the same threshold filter as the
    // encode rungs. With any practical Qt its similarity floor disqualifies
    // it, so image-only configs see the exact candidate sets as before; under
    // an ultra-low threshold it is the byte-minimal choice, so the
    // feasibility floor — and therefore tight budgets — select it.
    if (const auto ph = ladders.placeholder_rung(*object);
        ph && ph->ssim + 1e-12 >= options.quality_threshold) {
      const std::size_t cost = static_cast<std::size_t>(
          (ph->bytes + options.byte_granularity - 1) / options.byte_granularity);
      cands.push_back({*ph, area * ph->ssim, cost});
    }
    if (cands.empty()) {
      const auto orig = ladder.original();
      cands.push_back({orig,
                       area * 1.0,
                       static_cast<std::size_t>((orig.bytes + options.byte_granularity - 1) /
                                                options.byte_granularity)});
    }
    slots.push_back(std::move(cands));
  }

  const Bytes image_budget = target_bytes > other_bytes ? target_bytes - other_bytes : 0;
  const std::size_t capacity =
      static_cast<std::size_t>(image_budget / options.byte_granularity);

  // Feasibility floor: byte-minimal candidates.
  std::vector<std::size_t> min_choice(slots.size());
  std::size_t min_cost_total = 0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < slots[i].size(); ++c) {
      if (slots[i][c].cost < slots[i][best].cost) best = c;
    }
    min_choice[i] = best;
    min_cost_total += slots[i][best].cost;
  }

  auto install = [&](const std::vector<std::size_t>& choice) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Candidate& c = slots[i][choice[i]];
      if (c.variant.is_original) {
        served.images.erase(images[i]->id);
      } else {
        served.images[images[i]->id] =
            web::ServedImage{.variant = c.variant, .dropped = false};
      }
    }
  };

  if (slots.empty() || min_cost_total > capacity) {
    // Even the floor overflows (or there is nothing to optimize).
    if (!slots.empty()) install(min_choice);
    outcome.bytes_after = served.transfer_size();
    outcome.met_target = outcome.bytes_after <= target_bytes;
    outcome.qss = compute_qss(served);
    return outcome;
  }

  // Multiple-choice knapsack DP: dp[b] = best value with total cost <= b.
  const std::size_t n = slots.size();
  std::vector<double> dp(capacity + 1, 0.0);
  std::vector<double> next(capacity + 1, kNegInf);
  // choice_at[k][b]: candidate picked for image k at budget b on the optimal
  // path (uint16 is ample: candidate counts are <= levels + 1).
  std::vector<std::vector<std::uint16_t>> choice_at(
      n, std::vector<std::uint16_t>(capacity + 1, 0));

  for (std::size_t k = 0; k < n; ++k) {
    // Anytime: one budget poll per DP layer. On expiry fall back to the
    // byte-minimal floor — feasible by the check above, just not optimal.
    if (ctx.expired()) {
      install(min_choice);
      outcome.bytes_after = served.transfer_size();
      outcome.met_target = outcome.bytes_after <= target_bytes;
      outcome.qss = compute_qss(served);
      return outcome;
    }
    std::fill(next.begin(), next.end(), kNegInf);
    for (std::size_t b = 0; b <= capacity; ++b) {
      for (std::size_t c = 0; c < slots[k].size(); ++c) {
        const Candidate& cand = slots[k][c];
        if (cand.cost > b) continue;
        const double prev = dp[b - cand.cost];
        if (prev == kNegInf) continue;
        ++outcome.cells;
        const double value = prev + cand.value;
        if (value > next[b]) {
          next[b] = value;
          choice_at[k][b] = static_cast<std::uint16_t>(c);
        }
      }
    }
    // Costs are "<= b": a solution within b-1 is within b too.
    for (std::size_t b = 1; b <= capacity; ++b) {
      if (next[b - 1] > next[b]) {
        next[b] = next[b - 1];
        choice_at[k][b] = choice_at[k][b - 1];
      }
    }
    dp.swap(next);
  }

  // Backtrack. Because of the prefix-max smoothing, walk down to the budget
  // where the value was actually achieved before reading the choice.
  std::vector<std::size_t> choice(n);
  std::size_t b = capacity;
  for (std::size_t k = n; k-- > 0;) {
    // Find the smallest b' <= b with the same dp value at layer k.
    const std::uint16_t c = choice_at[k][b];
    choice[k] = c;
    b -= std::min<std::size_t>(b, slots[k][c].cost);
  }

  install(choice);
  outcome.bytes_after = served.transfer_size();
  outcome.met_target = outcome.bytes_after <= target_bytes;
  outcome.qss = compute_qss(served);
  return outcome;
}

}  // namespace aw4a::core
