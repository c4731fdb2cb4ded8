// Facebook Free Basics (paper Table 1): a compliance filter, not a
// transcoder. Pages on the platform may not carry JavaScript, large images,
// iframes, video, or other rich content; publishers must pre-strip them.
#pragma once

#include "baselines/baseline.h"

namespace aw4a::baselines {

struct FreeBasicsOptions {
  /// Images above this size violate the guidelines and are removed.
  Bytes large_image_threshold = 50 * kKB;
};

/// Applies the platform rules to a page (what a compliant publisher would
/// have to serve).
BaselineResult freebasics_filter(const web::WebPage& page, const FreeBasicsOptions& options = {});

}  // namespace aw4a::baselines
