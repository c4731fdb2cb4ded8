// Corpus generation: per-country Alexa-like page sets.
//
// The paper's dataset is 72,069 crawled landing pages across 99 countries; we
// synthesize page sets calibrated to its aggregates. Two fidelities:
//
//   inventory pages  sizes/types/cache policies only — enough for the PAW and
//                    what-if analyses (Figs. 2, 3, 7), cheap at 1000s of pages
//   rich pages       every image carries a synthesized raster (real codec
//                    bytes, real SSIM) and every script a function/call-graph
//                    model — what the optimizer experiments consume
//                    (Figs. 8-11, 15, Table 3/4)
//
// Per-country composition profiles vary (images 28-72% of bytes, JS 18-45%),
// reproducing the spread behind the paper's what-if reduction ranges.
#pragma once

#include <memory>
#include <vector>

#include "dataset/countries.h"
#include "util/rng.h"
#include "web/page.h"

namespace aw4a::dataset {

/// Byte share per object type; indexed by web::ObjectType.
struct CompositionProfile {
  double share[7] = {0};

  double& of(web::ObjectType t) { return share[static_cast<int>(t)]; }
};

struct CorpusOptions {
  std::uint64_t seed = 20230910;
  /// Attach rasters and script models (slower; use small counts).
  bool rich = false;
  /// Relative within-country spread of page sizes.
  double page_size_cv = 0.45;
  /// Probability that a rich image is drawn from a corpus-wide shared asset
  /// pool (CDN logos, framework sprites, stock photos reused across sites)
  /// instead of being synthesized per page. 0 disables the pool entirely —
  /// generation is then byte-identical to a corpus without the knob. Only
  /// meaningful with `rich` (inventory pages carry no rasters).
  double cross_site_duplication_rate = 0.0;
  /// Distinct shared assets in the pool (a small pool means each shared
  /// asset recurs often, which is the realistic CDN shape).
  int shared_asset_pool = 6;
};

class CorpusGenerator {
 public:
  explicit CorpusGenerator(CorpusOptions options = {});

  /// Deterministic composition profile of a country.
  CompositionProfile country_profile(const Country& country) const;

  /// The profile used for the global Alexa top-1000 set.
  CompositionProfile global_profile() const;

  /// `count` landing pages whose mean transfer size matches the country's
  /// table mean exactly (sampled sizes are rescaled onto the target).
  std::vector<web::WebPage> country_pages(const Country& country, int count) const;

  /// Global top-`count` pages (mean = kGlobalMeanPageMb).
  std::vector<web::WebPage> global_pages(int count) const;

  /// One page with the given transfer-size target and composition.
  web::WebPage make_page(Rng& rng, Bytes target_transfer,
                         const CompositionProfile& profile) const;

  /// §10 future work: non-landing pages. A site is a landing page plus
  /// `inner_count` inner pages; inner pages are lighter and text-heavier
  /// (Aqeel et al., IMC '20 — the paper's [13]) and *share* the landing
  /// page's CSS, fonts and a slice of its scripts/images (same object ids),
  /// which is where the within-site cache synergy comes from.
  struct Site {
    web::WebPage landing;
    std::vector<web::WebPage> inner;
  };
  Site make_site(Rng& rng, Bytes landing_target, const CompositionProfile& profile,
                 int inner_count) const;

  /// The paper's 10 user-study sites (§4.2), as rich pages with fixed seeds:
  /// google/yahoo/microsoft/imdb/wordpress/amazon/stackoverflow/youtube .com,
  /// wikipedia.org, savefrom.net.
  std::vector<web::WebPage> user_study_pages() const;

 private:
  CorpusOptions options_;
  std::vector<std::shared_ptr<const imaging::SourceImage>> shared_assets_;
};

}  // namespace aw4a::dataset
