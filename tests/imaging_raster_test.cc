#include "imaging/raster.h"

#include <gtest/gtest.h>

#include "imaging/synth.h"
#include "util/hash.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

TEST(Raster, ConstructionAndAccess) {
  Raster img(4, 3, Pixel{10, 20, 30, 255});
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.pixels().size(), 12u);
  EXPECT_FALSE(img.empty());
  EXPECT_EQ(img.at(0, 0), (Pixel{10, 20, 30, 255}));
  img.at(3, 2) = Pixel{1, 2, 3, 4};
  EXPECT_EQ(img.at(3, 2).a, 4);
}

TEST(Raster, BoundsChecked) {
  Raster img(2, 2);
  EXPECT_THROW((void)img.at(2, 0), LogicError);
  EXPECT_THROW((void)img.at(0, -1), LogicError);
}

TEST(Raster, ClampedAccessRepeatsEdges) {
  Raster img(2, 2);
  img.at(1, 1) = Pixel{9, 9, 9, 255};
  EXPECT_EQ(img.at_clamped(10, 10), img.at(1, 1));
  EXPECT_EQ(img.at_clamped(-5, 0), img.at(0, 0));
}

TEST(Raster, HasAlphaDetectsTransparency) {
  Raster opaque(3, 3, Pixel{0, 0, 0, 255});
  EXPECT_FALSE(opaque.has_alpha());
  opaque.at(1, 1).a = 128;
  EXPECT_TRUE(opaque.has_alpha());
}

TEST(Raster, FillRectClips) {
  Raster img(4, 4, Pixel{0, 0, 0, 255});
  img.fill_rect(2, 2, 10, 10, Pixel{255, 0, 0, 255});
  EXPECT_EQ(img.at(3, 3).r, 255);
  EXPECT_EQ(img.at(1, 1).r, 0);
  // Negative origin clips too.
  img.fill_rect(-2, -2, 3, 3, Pixel{0, 255, 0, 255});
  EXPECT_EQ(img.at(0, 0).g, 255);
}

TEST(Raster, CompositeBlendsAlpha) {
  Raster dst(2, 1, Pixel{0, 0, 0, 255});
  Raster src(1, 1, Pixel{255, 255, 255, 128});
  dst.composite(src, 0, 0);
  EXPECT_NEAR(dst.at(0, 0).r, 128, 1);
  EXPECT_EQ(dst.at(1, 0).r, 0);  // outside src untouched
}

TEST(Raster, CompositeDigestIsFrozen) {
  // One digest over the destination pixels after compositing seeded sources
  // whose alphas mix 0, 255 and partial values (plus all-opaque and
  // all-transparent sources), placed inside, across each of the four edges,
  // over a corner and fully outside. Any kernel change must reproduce every
  // byte; a mismatch means the blend arithmetic moved.
  Rng rng(2026);
  auto channel = [&] { return static_cast<std::uint8_t>(rng.uniform_int(0, 255)); };
  auto source = [&](int w, int h, int alpha_mode) {
    Raster src(w, h);
    for (Pixel& p : src.pixels()) {
      p = Pixel{channel(), channel(), channel(), 255};
      const int pick = alpha_mode < 3 ? alpha_mode : static_cast<int>(rng.uniform_int(0, 2));
      p.a = pick == 0 ? 0 : pick == 1 ? 255 : static_cast<std::uint8_t>(rng.uniform_int(1, 254));
    }
    return src;
  };
  std::uint64_t digest = 0;
  for (int round = 0; round < 3; ++round) {
    Raster dst(61, 47);
    for (Pixel& p : dst.pixels()) p = Pixel{channel(), channel(), channel(), channel()};
    const std::pair<int, int> origins[] = {{5, 7},   {-9, 12}, {40, 20}, {10, -6},
                                           {18, 35}, {-4, -5}, {55, 41}, {70, 3}};
    int mode = round;
    for (const auto& [x, y] : origins) {
      const Raster src = source(static_cast<int>(rng.uniform_int(1, 24)),
                                static_cast<int>(rng.uniform_int(1, 24)), mode++ % 4);
      dst.composite(src, x, y);
    }
    for (const Pixel& p : dst.pixels()) {
      digest = hash_mix(digest, static_cast<std::uint64_t>(p.r) | std::uint64_t{p.g} << 8 |
                                    std::uint64_t{p.b} << 16 | std::uint64_t{p.a} << 24);
    }
  }
  EXPECT_EQ(digest, 0xfda29df9b68c722eULL) << std::hex << digest;
}

TEST(Raster, LumaCompositesOverWhite) {
  Raster img(1, 1, Pixel{0, 0, 0, 0});  // fully transparent black
  const PlaneF luma = luma_plane(img);
  EXPECT_NEAR(luma.at(0, 0), 255.0f, 0.5f);  // shows the white background
}

TEST(Raster, LumaBt601Weights) {
  Raster img(1, 1, Pixel{255, 0, 0, 255});
  EXPECT_NEAR(luma_plane(img).at(0, 0), 0.299f * 255.0f, 0.5f);
}

class SynthTest : public ::testing::TestWithParam<ImageClass> {};

TEST_P(SynthTest, ProducesRequestedDimensions) {
  Rng rng(1);
  const Raster img = synth_image(rng, GetParam(), 48, 32);
  EXPECT_EQ(img.width(), 48);
  EXPECT_EQ(img.height(), 32);
}

TEST_P(SynthTest, DeterministicInRngState) {
  Rng a(7);
  Rng b(7);
  const Raster x = synth_image(a, GetParam(), 32, 32);
  const Raster y = synth_image(b, GetParam(), 32, 32);
  EXPECT_TRUE(x.pixels() == y.pixels());
}

TEST_P(SynthTest, NotConstant) {
  Rng rng(3);
  const Raster img = synth_image(rng, GetParam(), 64, 64);
  const Pixel first = img.at(0, 0);
  bool varies = false;
  for (int y = 0; y < img.height() && !varies; ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (!(img.at(x, y) == first)) {
        varies = true;
        break;
      }
    }
  }
  EXPECT_TRUE(varies) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllClasses, SynthTest, ::testing::ValuesIn(kAllImageClasses),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');
                           return name;
                         });

TEST(Synth, ValueNoiseInUnitRange) {
  Rng rng(5);
  const PlaneF noise = value_noise(rng, 40, 40, 4);
  for (float v : noise.v) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

TEST(Synth, ClassFrequenciesFavorPhotos) {
  Rng rng(6);
  int photos = 0;
  for (int i = 0; i < 2000; ++i) {
    if (sample_image_class(rng) == ImageClass::kPhoto) ++photos;
  }
  EXPECT_NEAR(photos / 2000.0, 0.38, 0.05);
}

}  // namespace
}  // namespace aw4a::imaging
