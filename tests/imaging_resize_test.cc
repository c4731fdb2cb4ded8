#include "imaging/resize.h"

#include <gtest/gtest.h>

#include <bit>

#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "util/hash.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

TEST(Resize, BoxProducesExactDimensions) {
  Rng rng(1);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 48);
  const Raster small = resize_box(img, 17, 13);
  EXPECT_EQ(small.width(), 17);
  EXPECT_EQ(small.height(), 13);
}

TEST(Resize, BoxPreservesFlatColor) {
  Raster img(32, 32, Pixel{77, 88, 99, 255});
  const Raster small = resize_box(img, 8, 8);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) EXPECT_EQ(small.at(x, y), (Pixel{77, 88, 99, 255}));
  }
}

TEST(Resize, BoxPreservesMeanBrightness) {
  Rng rng(2);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 64);
  const Raster small = resize_box(img, 16, 16);
  auto mean_luma = [](const Raster& r) {
    const PlaneF luma = luma_plane(r);
    double sum = 0;
    for (float v : luma.v) sum += v;
    return sum / static_cast<double>(luma.v.size());
  };
  EXPECT_NEAR(mean_luma(img), mean_luma(small), 2.0);
}

TEST(Resize, BilinearUpscaleSmooth) {
  Raster img(2, 1);
  img.at(0, 0) = Pixel{0, 0, 0, 255};
  img.at(1, 0) = Pixel{200, 200, 200, 255};
  const Raster big = resize_bilinear(img, 8, 1);
  // Interpolated values are monotone left to right.
  for (int x = 1; x < 8; ++x) EXPECT_GE(big.at(x, 0).r, big.at(x - 1, 0).r);
}

TEST(Resize, ReduceResolutionScalesDimensions) {
  Rng rng(3);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 100, 60);
  const Raster half = reduce_resolution(img, 0.5);
  EXPECT_EQ(half.width(), 50);
  EXPECT_EQ(half.height(), 30);
  // Scale 1.0 is a no-op copy.
  const Raster same = reduce_resolution(img, 1.0);
  EXPECT_TRUE(img.pixels() == same.pixels());
}

TEST(Resize, ReduceResolutionNeverBelowOnePixel) {
  Raster img(4, 4);
  const Raster tiny = reduce_resolution(img, 0.01);
  EXPECT_GE(tiny.width(), 1);
  EXPECT_GE(tiny.height(), 1);
}

TEST(Resize, RejectsBadScale) {
  Raster img(4, 4);
  EXPECT_THROW((void)reduce_resolution(img, 0.0), LogicError);
  EXPECT_THROW((void)reduce_resolution(img, 1.5), LogicError);
}

TEST(Resize, RedisplayRoundTripDegradesGracefully) {
  Rng rng(4);
  const Raster img = synth_image(rng, ImageClass::kTextBanner, 80, 80);
  // Deeper reductions lose structure after redisplay — the physical basis of
  // RBR's resolution ladder. Local non-monotone wiggles are allowed (they
  // are the paper's Fig. 8 observation); the broad trend must hold.
  const double s_mild = ssim(img, redisplay(reduce_resolution(img, 0.9), 80, 80));
  const double s_deep = ssim(img, redisplay(reduce_resolution(img, 0.3), 80, 80));
  EXPECT_LT(s_mild, 1.0);
  EXPECT_LT(s_deep, s_mild);
  EXPECT_GT(s_deep, 0.2);  // even 0.3x is recognizably the same image
}

TEST(Resize, RedisplayNoOpWhenSameSize) {
  Rng rng(5);
  const Raster img = synth_image(rng, ImageClass::kLogo, 30, 30);
  EXPECT_TRUE(redisplay(img, 30, 30).pixels() == img.pixels());
}

TEST(Resize, BilinearDigestIsFrozen) {
  // One digest over resize_bilinear's output pixels for seeded rasters and
  // sizes: upsampling (the browser's redisplay and the page renderer),
  // downsampling, 1-px sources and targets, and identity. Any kernel change
  // must reproduce every byte; a mismatch means the arithmetic moved.
  Rng rng(2024);
  std::uint64_t digest = 0;
  auto fold = [&](const Raster& src, int w, int h) {
    const Raster out = resize_bilinear(src, w, h);
    ASSERT_EQ(out.width(), w);
    ASSERT_EQ(out.height(), h);
    digest = hash_mix(digest, static_cast<std::uint64_t>(w) << 32 | static_cast<std::uint64_t>(h));
    for (const Pixel& p : out.pixels()) {
      digest = hash_mix(digest, static_cast<std::uint64_t>(p.r) | std::uint64_t{p.g} << 8 |
                                    std::uint64_t{p.b} << 16 | std::uint64_t{p.a} << 24);
    }
  };
  auto noise = [&](int w, int h) {
    Raster img(w, h);
    for (Pixel& p : img.pixels()) {
      p = Pixel{static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                static_cast<std::uint8_t>(rng.uniform_int(0, 255))};
    }
    return img;
  };
  for (const ImageClass cls : kAllImageClasses) {
    const Raster img = synth_image(rng, cls, 72, 54);
    fold(img, 180, 121);  // up
    fold(img, 23, 17);    // down
    fold(img, 72, 54);    // identity
    fold(img, 1, 1);      // 1-px target
    fold(img, 1, 90);
    fold(img, 150, 1);
  }
  fold(noise(1, 1), 9, 7);  // 1-px source
  fold(noise(1, 13), 5, 40);
  fold(noise(11, 1), 33, 2);
  for (int i = 0; i < 24; ++i) {
    const Raster img = noise(static_cast<int>(rng.uniform_int(1, 60)),
                             static_cast<int>(rng.uniform_int(1, 60)));
    fold(img, static_cast<int>(rng.uniform_int(1, 140)),
         static_cast<int>(rng.uniform_int(1, 140)));
  }
  EXPECT_EQ(digest, 0xcd3f8406f0b207deULL) << std::hex << digest;
}

TEST(Resize, RedisplayLumaEqualsLumaOfRedisplay) {
  // The fused measurement kernel must reproduce luma_plane(redisplay(...))
  // bit for bit: opaque sources (the alpha-free path) and sources with
  // alpha, identity size, 1-px targets, up- and downsampling, and target
  // widths of every residue mod 4 so the vector rows' scalar tails run.
  Rng rng(2028);
  auto noise = [&](int w, int h, bool alpha) {
    Raster img(w, h);
    for (Pixel& p : img.pixels()) {
      p = Pixel{static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                alpha ? static_cast<std::uint8_t>(rng.uniform_int(0, 255)) : std::uint8_t{255}};
    }
    return img;
  };
  auto check = [](const Raster& src, int w, int h) {
    const PlaneF fused = redisplay_luma(src, w, h);
    const PlaneF ref = luma_plane(redisplay(src, w, h));
    ASSERT_EQ(fused.width, w);
    ASSERT_EQ(fused.height, h);
    ASSERT_EQ(fused.v.size(), ref.v.size());
    for (std::size_t i = 0; i < ref.v.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(fused.v[i]), std::bit_cast<std::uint32_t>(ref.v[i]))
          << src.width() << "x" << src.height() << " -> " << w << "x" << h << " at " << i;
    }
  };
  std::vector<Raster> sources;
  for (const ImageClass cls : kAllImageClasses) sources.push_back(synth_image(rng, cls, 58, 43));
  sources.push_back(noise(37, 29, false));
  sources.push_back(noise(37, 29, true));
  sources.push_back(noise(1, 1, false));
  sources.push_back(noise(1, 9, true));
  sources.push_back(noise(13, 1, false));
  for (const Raster& src : sources) {
    SCOPED_TRACE(src.has_alpha() ? "alpha" : "opaque");
    check(src, src.width(), src.height());  // identity
    check(src, 1, 1);
    check(src, 1, 33);
    check(src, 45, 1);
    for (const int w : {96, 97, 98, 99, 143, 20, 21, 22, 23}) {
      check(src, w, w * 3 / 4 + 1);
    }
  }
}

}  // namespace
}  // namespace aw4a::imaging
