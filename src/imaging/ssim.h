// Structural Similarity Index (Wang et al. 2004), the quality metric behind
// QSS/QFS in the paper (Eq. 5). Computed on BT.601 luma with 8x8 windows
// stepping by 4 pixels on both axes, using the standard stabilization
// constants C1=(0.01*255)^2, C2=(0.03*255)^2. A plane smaller than a window
// shrinks the window to min(width, height); the last window on each axis is
// clamped to the plane edge.
//
// ssim() re-sums each window directly. Where the CPU has AVX2 it runs four
// windows per register, bit-identical to the scalar ssim_reference, which it
// runs everywhere else. bench_perf_pipeline's ssim_strided_* rows time both.
#pragma once

#include "imaging/raster.h"

namespace aw4a::imaging {

/// Mean SSIM of two same-sized luma planes, in [-1, 1] (≈[0,1] for natural
/// content; exactly 1 for identical inputs).
double ssim(const PlaneF& a, const PlaneF& b);

/// Convenience: SSIM over the luma of two same-sized rasters.
double ssim(const Raster& a, const Raster& b);

/// The scalar reference: the same window sums in the same order, one window
/// at a time. What ssim() runs where AVX2 is absent, and the oracle tests and
/// bench_perf_pipeline pin ssim() to bit for bit.
double ssim_reference(const PlaneF& a, const PlaneF& b);

}  // namespace aw4a::imaging
