// Lite-video extension (paper §10 "Video").
//
// The paper defers rich media: "future trends in video compression (e.g.,
// WebM, VP9) and customization of video resolutions will likely make it
// plausible to serve lite video content." This module supplies the substrate:
// a media asset with a rendition ladder whose (bitrate -> quality) points
// follow the standard exponential rate-distortion form
//
//     quality(R) = 1 - exp(-R / complexity)
//
// with per-asset complexity (busy sports clips need more bits than talking
// heads). Unlike images, we do not run a real video codec — the paper itself
// treats video as future work — so this is a documented model, not a
// measurement; the R-D form is the one video codecs are engineered around.
#pragma once

#include <memory>
#include <vector>

#include "util/bytes.h"
#include "util/rng.h"

namespace aw4a::web {

/// One encodable version of a clip.
struct MediaRendition {
  int height_px = 0;      ///< 1080/720/480/360/240
  int bitrate_kbps = 0;
  Bytes bytes = 0;        ///< duration * bitrate
  double quality = 1.0;   ///< relative to the top rendition, in (0, 1]
};

/// A clip with its rendition ladder (descending bitrate).
struct MediaAsset {
  std::uint64_t id = 0;
  double duration_seconds = 0;
  /// R-D complexity: kbps at which quality reaches 1 - 1/e.
  double complexity_kbps = 0;
  std::vector<MediaRendition> ladder;

  /// Cheapest rendition with quality >= floor (never below the last rung);
  /// returns the shipped rendition when nothing cheaper qualifies.
  const MediaRendition& cheapest_at_least(double quality_floor) const;
};

/// Synthesizes a clip whose shipped size is `target_wire_bytes`, with a
/// standard 5-step resolution ladder.
MediaAsset make_media_asset(Rng& rng, Bytes target_wire_bytes);

}  // namespace aw4a::web
