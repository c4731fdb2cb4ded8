#include "imaging/ssim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dataset/corpus.h"
#include "imaging/synth.h"
#include "util/hash.h"
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

TEST(Ssim, IdenticalInputsScoreExactlyOne) {
  // QFS scores a pixel-identical screenshot pair 1.0 without calling ssim();
  // that is exact only if ssim(x, x) is exactly 1.0 on the scalar path and
  // its AVX2 lanes alike — not merely within rounding. Inputs: noise, flat
  // black/white/gray (the zero-variance windows whose raw variance can round
  // negative), and a rendered page (the inputs QFS actually compares).
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
    SCOPED_TRACE(name);
    EXPECT_EQ(ssim(x, x), 1.0);
    EXPECT_EQ(ssim(x, copy), 1.0);
    // The window arithmetic itself, with no identical-input shortcut: the
    // reference (and the AVX2 lanes, bit-identical to it) also lands on
    // exactly 1.0.
    EXPECT_EQ(ssim_reference(luma, luma), 1.0);
  }
}

// --- Equivalence of ssim() with the scalar reference. ---

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

TEST(SsimEquivalence, ConstantAndFlatPlanes) {
  const PlaneF flat_a(40, 40, 128.0f);
  const PlaneF flat_b(40, 40, 64.0f);
  // Zero-variance windows: the stabilized formula must agree exactly.
  EXPECT_EQ(ssim(flat_a, flat_b), ssim_reference(flat_a, flat_b));
  EXPECT_DOUBLE_EQ(ssim(flat_a, flat_a), 1.0);

  // One plane flat, one textured: covariance is ~0, variance one-sided.
  const auto [textured, unused] = correlated_planes(40, 40, 77);
  (void)unused;
  EXPECT_EQ(ssim(flat_a, textured), ssim_reference(flat_a, textured));
}

// The served scores, frozen: a digest of the ssim() result bits (default
// window and stride, the only geometry any caller serves) over every plane
// shape from 1x1 to 17x17 (windows clamped below 8, clamped tail windows),
// the ladder-sized widths whose tail windows land in or after the last group
// of four, and the 448x336 bench plane.
std::uint64_t digest_scores(const std::vector<std::pair<int, int>>& shapes) {
  std::uint64_t digest = 0;
  for (const auto& [width, height] : shapes) {
    Rng rng(static_cast<std::uint64_t>(width) * 1000 + static_cast<std::uint64_t>(height));
    PlaneF a(width, height);
    PlaneF b(width, height);
    for (std::size_t i = 0; i < a.v.size(); ++i) {
      a.v[i] = static_cast<float>(rng.uniform(0.0, 255.0));
      b.v[i] = std::clamp(a.v[i] + static_cast<float>(rng.uniform(-25.0, 25.0)), 0.0f, 255.0f);
    }
    digest = hash_mix(digest, static_cast<std::uint64_t>(width));
    digest = hash_mix(digest, static_cast<std::uint64_t>(height));
    digest = hash_mix(digest, ssim(a, b));
  }
  return digest;
}

TEST(Ssim, ServedScoresAreFrozen) {
  std::vector<std::pair<int, int>> small;
  for (int w = 1; w <= 17; ++w) {
    for (int h = 1; h <= 17; ++h) small.emplace_back(w, h);
  }
  EXPECT_EQ(digest_scores(small), 17707072933424780351ull);
  EXPECT_EQ(digest_scores({{97, 73}, {98, 74}, {99, 75}, {100, 75}, {101, 76}, {143, 107}}),
            2205437093048684634ull);
  EXPECT_EQ(digest_scores({{448, 336}}), 9731262826254883265ull);
}

TEST(SsimDispatch, DirectPathIsBitIdenticalToReference) {
  // The direct path may run four windows per AVX2 register; every lane must
  // execute the reference's chains in the reference's order, so equality is
  // exact — EXPECT_EQ on the doubles, not a tolerance. Sizes exercise the
  // vector groups, the scalar remainder (width not a multiple of 4 windows),
  // the clamped tail window on both axes, planes barely larger than one
  // window (12x9) and one smaller than it (7x5 shrinks the window to 5x5).
  // The ladder-sized planes (the 96-144 px originals whose redisplayed
  // variants get scored) put the clamped tail window inside the last group
  // of four (97, 98, 99 wide), in the scalar remainder (101, 143), or end a
  // regular group's contiguous loads on the row's last float (100).
  for (const auto& [w, h] : {std::pair{160, 120}, {163, 121}, {57, 43}, {448, 336}, {97, 73},
                             {101, 76}, {143, 107}, {98, 74}, {99, 75}, {100, 75}, {37, 53},
                             {61, 19}, {101, 23}, {12, 9}, {7, 5}}) {
    const auto [a, b] = correlated_planes(w, h, 31);
    EXPECT_EQ(ssim(a, b), ssim_reference(a, b)) << w << "x" << h;
  }
}

}  // namespace
}  // namespace aw4a::imaging
