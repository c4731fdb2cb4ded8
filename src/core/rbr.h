// RBR — Rank-Based Reduce (paper §7.2, Algorithm 1).
//
// The greedy image-optimization stage of HBS. Images are ranked by
// *reducibility*, a weighted sum of two normalized heuristics:
//   Area             smaller on-page footprint tolerates more degradation
//                    (viewing-distance argument), so smaller ranks higher;
//   Bytes Efficiency |d bytes| / |d SSIM| measured on the image's own
//                    resolution ladder (Eq. 6) — more savings per unit of
//                    quality ranks higher.
// Images are then reduced in rank order, each stepped down its resolution
// ladder while per-image SSIM stays >= the threshold Qt, stopping the moment
// the byte target is met. Before ranking, PNG images are transcoded to WebP
// when that is visually safe and byte-superior (the paper's WebP rule).
#pragma once

#include "core/objective.h"

namespace aw4a::core {

struct RbrOptions {
  /// Qt: minimum per-image SSIM (paper default 0.9 = "Fair" on the MOS scale).
  double quality_threshold = 0.9;
  /// Heuristic weights (paper default: equal).
  double area_weight = 0.5;
  double bytes_efficiency_weight = 0.5;
};

struct RbrOutcome {
  bool met_target = false;
  Bytes bytes_after = 0;
  /// Images actually modified (transcoded or downscaled).
  int images_touched = 0;
};

/// Runs RBR on top of the decisions already in `served`, reducing image
/// bytes until the *whole page* transfer size is <= `target_bytes` or every
/// image sits at the quality threshold. Decisions are written into `served`.
/// Anytime under a context deadline: the greedy loop stops between images
/// when the budget runs out, keeping the reductions already applied (they
/// are each individually safe), so the caller gets the best page reachable
/// in the time allowed rather than an exception.
RbrOutcome rank_based_reduce(web::ServedPage& served, Bytes target_bytes, LadderCache& ladders,
                             const RbrOptions& options = {},
                             const obs::RequestContext& ctx = obs::RequestContext::none());

/// The reducibility score RBR ranks by (exposed for tests and ablations):
/// weighted sum of the normalized heuristics, higher = reduce first.
std::vector<std::pair<std::uint64_t, double>> reducibility_ranking(
    const web::WebPage& page, LadderCache& ladders, const RbrOptions& options = {},
    const obs::RequestContext& ctx = obs::RequestContext::none());

}  // namespace aw4a::core
