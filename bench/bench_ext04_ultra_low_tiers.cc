// EXT-04 — the ultra-low tiers below the image ladder (DESIGN.md §14).
//
// The paper's ladder stops where image re-encoding stops; the PAW targets of
// the least-affordable countries do not. This bench measures what the two
// heterogeneous rungs buy: per-tier bytes/quality across a rich corpus, and
// PAW reachability per country band — the share of (country, page) pairs
// whose 1/PAW byte target the served ladder can actually meet, with the
// image ladder alone vs with text-only and markup-rewrite tiers appended.
//
// Exit status is the acceptance check (run by tier1.sh): non-zero when the
// markup tier saves less than 85% of page bytes on average, when an ultra
// tier fails to go deeper than the image ladder on any page, when appending
// ultra tiers *loses* PAW reachability anywhere, or when any page's rewrite
// blob fails its parse round-trip.
//
//   build/bench/bench_ext04_ultra_low_tiers [--pages=8] [--json=BENCH_ultra.json]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "analysis/report.h"
#include "core/api.h"
#include "dataset/corpus.h"
#include "util/rng.h"
#include "util/table.h"
#include "web/markup.h"

namespace {

using namespace aw4a;
using bench::Entry;
using bench::write_json;

struct TierAgg {
  double bytes = 0, reduction = 0, savings = 0, qss = 0, qfs = 0, elapsed_ms = 0;
  int n = 0;
  void add(const core::Tier& tier) {
    bytes += static_cast<double>(tier.result.result_bytes);
    reduction += tier.achieved_reduction();
    savings += tier.savings_fraction();
    qss += tier.result.quality.qss;
    qfs += tier.result.quality.qfs;
    elapsed_ms += tier.result.elapsed_seconds * 1000.0;
    ++n;
  }
  double mean(double TierAgg::* field) const {
    return n == 0 ? 0.0 : this->*field / n;
  }
};

/// PAW bands of the DVLU plan: the four rows of the reachability table.
struct Band {
  const char* label;
  double lo, hi;
  int countries = 0;
  int pairs = 0;          ///< (country, page) pairs in the band
  int image_only = 0;     ///< pairs whose PAW the image ladder alone meets
  int with_ultra = 0;     ///< pairs met once ultra tiers are appended
  int served_ultra = 0;   ///< pairs paw_tier routes to an ultra rung
};

}  // namespace

int main(int argc, char** argv) {
  int pages = 8;
  std::string json_path = "BENCH_ultra.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--pages=", 8) == 0) pages = std::atoi(argv[i] + 8);
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  analysis::print_header(
      std::cout, "EXT-04 — ultra-low tiers: text-only and single-file markup",
      "the image ladder bottoms out near 3x; the markup tier ships >= 85% "
      "fewer bytes, putting every country band's 1/PAW target in reach",
      std::to_string(pages) + " rich pages, image tiers {1.5, 2, 3}x + ultra tiers, "
      "DVLU plan");

  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 404, .rich = true});
  Rng rng(404);
  core::DeveloperConfig config;
  config.tier_reductions = {1.5, 2.0, 3.0};
  config.min_image_ssim = 0.8;
  config.ultra_low.text_only = true;
  config.ultra_low.markup_rewrite = true;
  const core::Aw4aPipeline pipeline(config);

  bool ok = true;
  // Pages outlive the ladders: every Tier's ServedPage points back at its
  // WebPage, so the corpus is materialized first (and never reallocated).
  std::vector<web::WebPage> corpus;
  corpus.reserve(static_cast<std::size_t>(pages));
  for (int p = 0; p < pages; ++p) {
    corpus.push_back(
        gen.make_page(rng, from_kb(rng.uniform(600.0, 2200.0)), gen.global_profile()));
  }
  std::vector<std::vector<core::Tier>> ladders;
  TierAgg image_deepest, text_only, markup;
  for (int p = 0; p < pages; ++p) {
    const web::WebPage& page = corpus[static_cast<std::size_t>(p)];
    std::vector<core::Tier> tiers = pipeline.build_tiers(page);

    double deepest_image = 0.0;
    for (const core::Tier& tier : tiers) {
      if (tier.kind == core::TierKind::kImage) {
        deepest_image = std::max(deepest_image, tier.achieved_reduction());
      }
    }
    for (const core::Tier& tier : tiers) {
      switch (tier.kind) {
        case core::TierKind::kImage:
          if (tier.achieved_reduction() == deepest_image) break;
          continue;
        case core::TierKind::kTextOnly: text_only.add(tier); break;
        case core::TierKind::kMarkupRewrite: markup.add(tier); break;
      }
      if (tier.kind == core::TierKind::kImage) image_deepest.add(tier);
      // The markup tier must dominate the image ladder on every page. The
      // text-only tier keeps scripts (the page stays functional), so on
      // JS-heavy pages it legitimately lands *above* a deep image tier —
      // the non-monotone ladder paw_tier's fallback is built for.
      if (tier.kind == core::TierKind::kMarkupRewrite &&
          tier.achieved_reduction() <= deepest_image) {
        std::cout << "FAIL: markup tier (" << fmt(tier.achieved_reduction(), 2)
                  << "x) not deeper than the image ladder (" << fmt(deepest_image, 2)
                  << "x) on page " << p << "\n";
        ok = false;
      }
      // The single file must parse back to the exact document it serialized.
      if (tier.kind == core::TierKind::kMarkupRewrite) {
        const auto& rewrite = tier.result.served.rewrite;
        if (rewrite == nullptr ||
            !(web::parse_markup(rewrite->blob) == web::rewrite_document(page))) {
          std::cout << "FAIL: markup blob round-trip mismatch on page " << p << "\n";
          ok = false;
        }
      }
    }
    ladders.push_back(std::move(tiers));
  }

  TextTable tiers_table({"tier", "mean KB", "mean reduction", "savings %", "QSS", "QFS",
                         "build ms"});
  const auto tier_row = [&](const char* name, const TierAgg& agg) {
    tiers_table.add_row({name, fmt(agg.mean(&TierAgg::bytes) / 1024.0, 1),
                         fmt(agg.mean(&TierAgg::reduction), 2) + "x",
                         fmt(agg.mean(&TierAgg::savings) * 100.0, 1),
                         fmt(agg.mean(&TierAgg::qss), 3), fmt(agg.mean(&TierAgg::qfs), 3),
                         fmt(agg.mean(&TierAgg::elapsed_ms), 1)});
  };
  tier_row("image (deepest)", image_deepest);
  tier_row("text-only", text_only);
  tier_row("markup-rewrite", markup);
  std::cout << tiers_table.render(2) << '\n';

  // PAW reachability per band: does the ladder reach 1/PAW, and which rungs
  // does it take? Bands chosen so the dataset's DVLU PAW range (1, 2.6]
  // spreads across rows.
  Band bands[] = {{"PAW 1.0-1.3", 1.0, 1.3},
                  {"PAW 1.3-1.6", 1.3, 1.6},
                  {"PAW 1.6-2.0", 1.6, 2.0},
                  {"PAW 2.0+", 2.0, 1e9}};
  const net::PlanType plan = net::PlanType::kDataVoiceLowUsage;
  for (const dataset::Country* country : dataset::countries_with_prices()) {
    const double paw = core::paw_index(*country, plan);
    if (paw <= 1.0) continue;  // already affordable: nothing to reach
    for (Band& band : bands) {
      if (paw < band.lo || paw >= band.hi) continue;
      ++band.countries;
      for (std::size_t p = 0; p < ladders.size(); ++p) {
        ++band.pairs;
        double image_best = 0.0, ladder_best = 0.0;
        for (const core::Tier& tier : ladders[p]) {
          ladder_best = std::max(ladder_best, tier.achieved_reduction());
          if (tier.kind == core::TierKind::kImage) {
            image_best = std::max(image_best, tier.achieved_reduction());
          }
        }
        if (image_best + 1e-9 >= paw) ++band.image_only;
        if (ladder_best + 1e-9 >= paw) ++band.with_ultra;
        const std::size_t idx = core::paw_tier(ladders[p], *country, plan);
        if (ladders[p][idx].kind != core::TierKind::kImage) ++band.served_ultra;
      }
      break;
    }
  }

  TextTable reach({"band", "countries", "% reach (image only)", "% reach (with ultra)",
                   "% served ultra tier"});
  int pairs_total = 0, image_total = 0, ultra_total = 0;
  for (const Band& band : bands) {
    if (band.pairs == 0) continue;
    const auto pct = [&](int k) { return fmt(100.0 * k / band.pairs, 1); };
    reach.add_row({band.label, std::to_string(band.countries), pct(band.image_only),
                   pct(band.with_ultra), pct(band.served_ultra)});
    pairs_total += band.pairs;
    image_total += band.image_only;
    ultra_total += band.with_ultra;
    if (band.with_ultra < band.image_only) {
      std::cout << "FAIL: appending ultra tiers lost reachability in band " << band.label
                << "\n";
      ok = false;
    }
  }
  std::cout << reach.render(2) << '\n';
  std::cout << "reachable pairs: " << image_total << "/" << pairs_total
            << " with the image ladder, " << ultra_total << "/" << pairs_total
            << " with ultra tiers appended\n";

  const double markup_savings = markup.mean(&TierAgg::savings);
  std::cout << "markup tier mean savings: " << fmt(markup_savings * 100.0, 1) << "% ("
            << fmt(markup.mean(&TierAgg::reduction), 2) << "x), built in "
            << fmt(markup.mean(&TierAgg::elapsed_ms), 1) << " ms\n";
  if (markup_savings < 0.85) {
    std::cout << "FAIL: markup tier mean savings " << fmt(markup_savings * 100.0, 1)
              << "% below the 85% acceptance bar\n";
    ok = false;
  }
  if (ultra_total < pairs_total) {
    // Informational, not a failure: the dataset's hardest PAW is ~2.6, so the
    // ultra rungs are expected to cover everything — say so if they do not.
    std::cout << "note: " << (pairs_total - ultra_total)
              << " pairs remain out of reach even at the markup tier\n";
  }

  write_json(json_path,
             {{"ultra_low/bytes_reduction", "x", markup.mean(&TierAgg::reduction)},
              {"ultra_low/text_only_reduction", "x", text_only.mean(&TierAgg::reduction)},
              {"ultra_low/markup_build_ms", "ms", markup.mean(&TierAgg::elapsed_ms)},
              {"ultra_low/paw_reachable_ratio", "ratio",
               pairs_total == 0 ? 0.0 : static_cast<double>(ultra_total) / pairs_total},
              {"ultra_low/paw_reachable_image_only_ratio", "ratio",
               pairs_total == 0 ? 0.0 : static_cast<double>(image_total) / pairs_total}});
  std::cout << (ok ? "PASS" : "FAIL") << "\n";
  return ok ? 0 : 1;
}
