#include "imaging/ssim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dataset/corpus.h"
#include "imaging/synth.h"
#include "util/rng.h"
#include "web/render.h"

namespace aw4a::imaging {
namespace {

TEST(Ssim, IdenticalImagesScoreOne) {
  Rng rng(1);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 64);
  EXPECT_DOUBLE_EQ(ssim(img, img), 1.0);
}

TEST(Ssim, Symmetric) {
  Rng rng(2);
  const Raster a = synth_image(rng, ImageClass::kPhoto, 64, 64);
  const Raster b = synth_image(rng, ImageClass::kPhoto, 64, 64);
  EXPECT_DOUBLE_EQ(ssim(a, b), ssim(b, a));
}

TEST(Ssim, BoundedAndPenalizesDifference) {
  Rng rng(3);
  const Raster a = synth_image(rng, ImageClass::kPhoto, 64, 64);
  const Raster b = synth_image(rng, ImageClass::kTextBanner, 64, 64);
  const double s = ssim(a, b);
  EXPECT_LT(s, 0.9);
  EXPECT_GE(s, -1.0);
  EXPECT_LE(s, 1.0);
}

TEST(Ssim, MonotoneInNoiseLevel) {
  Rng rng(4);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 64);
  auto noisy = [&](int amplitude) {
    Raster out = img;
    Rng noise_rng(99);
    for (auto& p : out.pixels()) {
      const int d = static_cast<int>(noise_rng.uniform_int(-amplitude, amplitude));
      p.r = static_cast<std::uint8_t>(std::clamp(int(p.r) + d, 0, 255));
      p.g = static_cast<std::uint8_t>(std::clamp(int(p.g) + d, 0, 255));
      p.b = static_cast<std::uint8_t>(std::clamp(int(p.b) + d, 0, 255));
    }
    return out;
  };
  const double s5 = ssim(img, noisy(5));
  const double s20 = ssim(img, noisy(20));
  const double s60 = ssim(img, noisy(60));
  EXPECT_GT(s5, s20);
  EXPECT_GT(s20, s60);
  EXPECT_GT(s5, 0.8);
}

TEST(Ssim, LuminanceShiftCostsLessThanStructureLoss) {
  Rng rng(5);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 64);
  Raster shifted = img;
  for (auto& p : shifted.pixels()) {
    p.r = static_cast<std::uint8_t>(std::min(255, p.r + 12));
    p.g = static_cast<std::uint8_t>(std::min(255, p.g + 12));
    p.b = static_cast<std::uint8_t>(std::min(255, p.b + 12));
  }
  Raster flat(64, 64, Pixel{128, 128, 128, 255});
  EXPECT_GT(ssim(img, shifted), ssim(img, flat));
}

TEST(Ssim, RejectsMismatchedSizes) {
  Raster a(10, 10);
  Raster b(11, 10);
  EXPECT_THROW((void)ssim(a, b), LogicError);
}

TEST(Ssim, HandlesImagesSmallerThanWindow) {
  Raster a(5, 5, Pixel{100, 100, 100, 255});
  Raster b = a;
  EXPECT_DOUBLE_EQ(ssim(a, b), 1.0);
  b.at(2, 2) = Pixel{0, 0, 0, 255};
  EXPECT_LT(ssim(a, b), 1.0);
}

TEST(Ssim, StrideApproximatesDense) {
  Rng rng(6);
  const Raster a = synth_image(rng, ImageClass::kPhoto, 96, 96);
  const Raster b = synth_image(rng, ImageClass::kPhoto, 96, 96);
  const double dense = ssim(a, b, {.window = 8, .stride = 1});
  const double strided = ssim(a, b, {.window = 8, .stride = 4});
  EXPECT_NEAR(dense, strided, 0.03);
}

TEST(Ssim, IdenticalInputsScoreExactlyOne) {
  // QFS scores a pixel-identical screenshot pair 1.0 without calling ssim();
  // that is exact only if ssim(x, x) is exactly 1.0 on every dispatch side
  // (integral tables, the direct path, and its AVX2 lanes where the CPU has
  // them) — not merely within rounding. Inputs: noise, flat black/white/gray
  // (the zero-variance windows whose raw variance can round negative), and a
  // rendered page (the inputs QFS actually compares).
  std::vector<std::pair<const char*, Raster>> inputs;
  Rng rng(2029);
  Raster noise(180, 600);
  for (Pixel& p : noise.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
              static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
              static_cast<std::uint8_t>(rng.uniform_int(0, 255)), 255};
  }
  inputs.emplace_back("noise", std::move(noise));
  inputs.emplace_back("black", Raster(180, 600, Pixel{0, 0, 0, 255}));
  inputs.emplace_back("white", Raster(180, 600, Pixel{255, 255, 255, 255}));
  inputs.emplace_back("gray", Raster(180, 600, Pixel{128, 128, 128, 255}));
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 5, .rich = true});
  Rng page_rng(5);
  const web::WebPage page = gen.make_page(page_rng, from_kb(250), gen.global_profile());
  inputs.emplace_back("page", web::render_page(web::serve_original(page)));

  for (const auto& [name, x] : inputs) {
    const Raster copy = x;
    const PlaneF luma = luma_plane(x);
    for (const SsimOptions opts : {SsimOptions{.window = 8, .stride = 1},
                                   SsimOptions{.window = 8, .stride = 4}}) {
      SCOPED_TRACE(std::string(name) + " stride " + std::to_string(opts.stride));
      EXPECT_EQ(ssim_uses_integral(x.width(), x.height(), opts), opts.stride == 1);
      EXPECT_EQ(ssim(x, x, opts), 1.0);
      EXPECT_EQ(ssim(x, copy, opts), 1.0);
      // The window arithmetic itself, with no identical-input shortcut: the
      // direct path (and the AVX2 lanes, bit-identical to it) also lands
      // on exactly 1.0.
      EXPECT_EQ(ssim_reference(luma, luma, opts), 1.0);
    }
  }
}

class SsimWindowTest : public ::testing::TestWithParam<int> {};

TEST_P(SsimWindowTest, IdentityHoldsForAllWindows) {
  Rng rng(7);
  const Raster img = synth_image(rng, ImageClass::kScreenshot, 48, 48);
  EXPECT_DOUBLE_EQ(ssim(img, img, {.window = GetParam(), .stride = 2}), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Windows, SsimWindowTest, ::testing::Values(4, 8, 11, 16));

// --- Equivalence of the integral-image implementation with the retained
// direct-summation reference (the pre-rewrite algorithm). ---

// Two correlated planes of the given size: a synthetic photo's luma and a
// perturbed copy, so variance/covariance terms are all exercised.
std::pair<PlaneF, PlaneF> correlated_planes(int width, int height, int seed = 11) {
  Rng rng(seed);
  const Raster img = synth_image(rng, ImageClass::kPhoto, width, height);
  PlaneF a = luma_plane(img);
  PlaneF b = a;
  Rng noise(seed + 1);
  for (float& v : b.v) {
    v = std::clamp(v + static_cast<float>(noise.uniform(-25.0, 25.0)), 0.0f, 255.0f);
  }
  return {std::move(a), std::move(b)};
}

class SsimStrideEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SsimStrideEquivalenceTest, MatchesReferenceImplementation) {
  const auto [a, b] = correlated_planes(96, 80);
  const SsimOptions opts{.window = 8, .stride = GetParam()};
  EXPECT_NEAR(ssim(a, b, opts), ssim_reference(a, b, opts), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Strides, SsimStrideEquivalenceTest, ::testing::Values(1, 3, 4, 8));

TEST(SsimEquivalence, OddPlaneSizes) {
  for (const auto [w, h] : {std::pair{37, 53}, std::pair{61, 19}, std::pair{101, 23}}) {
    const auto [a, b] = correlated_planes(w, h, 100 + w);
    for (const int stride : {1, 3, 4}) {
      const SsimOptions opts{.window = 8, .stride = stride};
      EXPECT_NEAR(ssim(a, b, opts), ssim_reference(a, b, opts), 1e-9)
          << w << "x" << h << " stride " << stride;
    }
  }
}

TEST(SsimEquivalence, WindowLargerThanPlaneClamps) {
  const auto [a, b] = correlated_planes(12, 9, 31);
  // window 16 > both dims: both implementations must clamp to min(w, h).
  const SsimOptions opts{.window = 16, .stride = 2};
  EXPECT_NEAR(ssim(a, b, opts), ssim_reference(a, b, opts), 1e-9);
}

TEST(SsimEquivalence, ConstantAndFlatPlanes) {
  const PlaneF flat_a(40, 40, 128.0f);
  const PlaneF flat_b(40, 40, 64.0f);
  // Zero-variance windows: the stabilized formula must agree exactly.
  EXPECT_NEAR(ssim(flat_a, flat_b), ssim_reference(flat_a, flat_b), 1e-9);
  EXPECT_DOUBLE_EQ(ssim(flat_a, flat_a), 1.0);

  // One plane flat, one textured: covariance is ~0, variance one-sided.
  const auto [textured, unused] = correlated_planes(40, 40, 77);
  (void)unused;
  for (const int stride : {1, 4}) {
    const SsimOptions opts{.window = 8, .stride = stride};
    EXPECT_NEAR(ssim(flat_a, textured, opts), ssim_reference(flat_a, textured, opts), 1e-9);
  }
}

TEST(SsimEquivalence, LargePlaneDense) {
  const auto [a, b] = correlated_planes(144, 128, 5);
  const SsimOptions dense{.window = 8, .stride = 1};
  EXPECT_NEAR(ssim(a, b, dense), ssim_reference(a, b, dense), 1e-9);
}

// --- Integral-vs-direct dispatch (the strided-SSIM regression fix) ---

TEST(SsimDispatch, BenchPlaneCrossesOverBetweenStride4AndStride1) {
  // The calibration case: on the 448x336 bench plane with the 8x8 window,
  // stride 4 visits 1/16th of the window positions and the direct path wins;
  // dense stride 1 amortizes the tables.
  EXPECT_FALSE(ssim_uses_integral(448, 336, SsimOptions{.window = 8, .stride = 4}));
  EXPECT_TRUE(ssim_uses_integral(448, 336, SsimOptions{.window = 8, .stride = 1}));
  EXPECT_TRUE(ssim_uses_integral(448, 336, SsimOptions{.window = 8, .stride = 2}));
}

TEST(SsimDispatch, TinyPlanesWhereEveryPixelIsWindowedUseIntegral) {
  // Stride 1 on any plane touches every pixel win^2 times directly; tables
  // always win there regardless of plane size.
  EXPECT_TRUE(ssim_uses_integral(16, 16, SsimOptions{.window = 8, .stride = 1}));
  EXPECT_TRUE(ssim_uses_integral(64, 64, SsimOptions{.window = 8, .stride = 1}));
}

TEST(SsimDispatch, VerySparseGridsUseDirect) {
  EXPECT_FALSE(ssim_uses_integral(448, 336, SsimOptions{.window = 8, .stride = 16}));
  EXPECT_FALSE(ssim_uses_integral(1024, 768, SsimOptions{.window = 8, .stride = 32}));
}

TEST(SsimDispatch, DirectPathIsBitIdenticalToReference) {
  // The direct path may run four windows per AVX2 register; every lane must
  // execute the reference's chains in the reference's order, so equality is
  // exact — EXPECT_EQ on the doubles, not a tolerance. Sizes exercise the
  // vector groups, the scalar remainder (width not a multiple of 4 windows),
  // and the clamped tail window on both axes. The ladder-sized planes (the
  // 96-144 px originals whose redisplayed variants get scored) put the
  // clamped tail window inside the last group of four (97, 98, 99 wide), in
  // the scalar remainder (101, 143), or end a regular group's contiguous
  // loads on the row's last float (100).
  for (const auto& [w, h] : {std::pair{160, 120}, {163, 121}, {57, 43}, {448, 336}, {97, 73},
                             {101, 76}, {143, 107}, {98, 74}, {99, 75}, {100, 75}}) {
    const auto [a, b] = correlated_planes(w, h, 31);
    for (const int stride : {3, 4, 7, 16}) {
      const SsimOptions opts{.window = 8, .stride = stride};
      if (ssim_uses_integral(w, h, opts)) continue;  // direct path only
      EXPECT_EQ(ssim(a, b, opts), ssim_reference(a, b, opts))
          << w << "x" << h << " stride " << stride;
    }
  }
}

TEST(SsimDispatch, BothSidesOfTheCrossoverAgreeNumerically) {
  // The dispatch must be invisible except as time: pin agreement right at
  // the strides where the path flips on a realistic plane.
  const auto [a, b] = correlated_planes(160, 120, 9);
  for (const int stride : {1, 2, 4, 8}) {
    const SsimOptions opts{.window = 8, .stride = stride};
    EXPECT_NEAR(ssim(a, b, opts), ssim_reference(a, b, opts), 1e-9) << "stride " << stride;
  }
}

}  // namespace
}  // namespace aw4a::imaging
