// Lite-video reduction (extension of the paper's §10 future work).
//
// Selects lower renditions for the page's media clips, cheapest-savings-per-
// quality-loss first, stopping when the page-wide byte target is met or every
// clip sits at the quality floor. QMS (media quality score) mirrors QSS:
// the byte-weighted mean rendition quality of the served clips.
#pragma once

#include "core/objective.h"

namespace aw4a::core {

struct MediaReductionOptions {
  /// Minimum acceptable rendition quality (relative to the shipped one).
  double quality_floor = 0.7;
  bool enabled = false;
};

struct MediaReductionOutcome {
  bool met_target = false;
  Bytes bytes_after = 0;
  int clips_reduced = 0;
};

/// Steps clips down their rendition ladders until `target_bytes` is met or
/// the floor binds. Decisions accumulate into `served.media`.
MediaReductionOutcome apply_media_reduction(web::ServedPage& served, Bytes target_bytes,
                                            const MediaReductionOptions& options = {});

/// Media quality score: byte-weighted mean rendition quality over the rich
/// media objects (1 when nothing was reduced or no media exists).
double compute_qms(const web::ServedPage& served);

}  // namespace aw4a::core
