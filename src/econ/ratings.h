// Perceived-quality models for the user-study heatmaps (paper Fig. 4a/4b).
//
// Fig. 4a grades the optimization *aggressiveness* needed to reach a target
// reduction on a 0-5 scale; Fig. 4b reports user-rated look/content
// dissimilarity of the resulting pages. We compute the former from a page's
// byte composition and map measured quality to ratings for the latter.
#pragma once

#include "util/rng.h"

namespace aw4a::econ {

/// The paper's 0-5 optimization-aggressiveness scale (Fig. 4a caption).
enum class OptimizationLevel {
  kLossless = 0,        ///< e.g. WebP transcoding only; no quality change
  kImageQuality = 1,    ///< reduced image quality / some external JS removed
  kNoImages = 2,        ///< all images removed
  kNoImagesSomeJs = 3,  ///< images + some external JS removed; page usable
  kNoImagesExtJs = 4,   ///< images + all external JS removed; page usable
  kUnusable = 5,        ///< images + all JS removed; page unusable
};

/// Byte composition of a page, as fractions of total transfer size.
struct PageShares {
  double images = 0.45;
  double js = 0.34;
  double external_js = 0.20;  ///< subset of js that is third-party
};

/// Savings fractions each level can unlock (cumulative with lower levels).
/// Lossless: ~25% of image bytes (WebP) ; quality: up to ~60% of image bytes.
OptimizationLevel required_optimization_level(const PageShares& shares, double reduction);

/// True if the page remains usable at this level (levels 0-4).
bool usable_at(OptimizationLevel level);

/// Maps a measured page quality in [0,1] (e.g. QSS/QFS average) to the
/// study's 0-5 dissimilarity rating (5 = maximally dissimilar), with optional
/// rater noise.
double dissimilarity_rating(double quality, Rng* rng = nullptr);

}  // namespace aw4a::econ
