#include "econ/ratings.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace aw4a::econ {

OptimizationLevel required_optimization_level(const PageShares& shares, double reduction) {
  AW4A_EXPECTS(reduction >= 1.0);
  const double need = 1.0 - 1.0 / reduction;  // fraction of bytes to shed
  // Cumulative savings unlocked at each level.
  const double lossless = 0.25 * shares.images + 0.02;          // WebP + minify
  const double img_quality = 0.60 * shares.images + 0.05 * shares.external_js + 0.02;
  const double no_images = shares.images + 0.05 * shares.external_js + 0.02;
  const double some_js = shares.images + 0.5 * shares.external_js + 0.02;
  const double ext_js = shares.images + shares.external_js + 0.02;
  const double all_js = shares.images + shares.js + 0.02;
  if (need <= lossless) return OptimizationLevel::kLossless;
  if (need <= img_quality) return OptimizationLevel::kImageQuality;
  if (need <= no_images) return OptimizationLevel::kNoImages;
  if (need <= some_js) return OptimizationLevel::kNoImagesSomeJs;
  if (need <= ext_js) return OptimizationLevel::kNoImagesExtJs;
  (void)all_js;
  return OptimizationLevel::kUnusable;
}

bool usable_at(OptimizationLevel level) { return level != OptimizationLevel::kUnusable; }

double dissimilarity_rating(double quality, Rng* rng) {
  AW4A_EXPECTS(quality >= 0.0 && quality <= 1.0);
  // Raters are forgiving near quality 1 and harsh below ~0.7 (QSS/QFS were
  // "more discerning than human evaluators" per the QLUE study): a convex
  // map from quality loss to the 0-5 scale.
  double rating = 5.0 * std::pow(1.0 - quality, 0.8);
  if (rng != nullptr) rating += rng->normal(0.0, 0.25);
  return std::clamp(rating, 0.0, 5.0);
}

}  // namespace aw4a::econ
