#include "imaging/codec.h"

#include <gtest/gtest.h>

#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

Raster test_photo(std::uint64_t seed = 1, int w = 64, int h = 64) {
  Rng rng(seed);
  return synth_image(rng, ImageClass::kPhoto, w, h);
}

TEST(JpegCodec, QualityControlsBytes) {
  const Raster img = test_photo();
  const Encoded q90 = encode(ImageFormat::kJpeg, img, 90);
  const Encoded q50 = encode(ImageFormat::kJpeg, img, 50);
  const Encoded q10 = encode(ImageFormat::kJpeg, img, 10);
  EXPECT_GT(q90.bytes, q50.bytes);
  EXPECT_GT(q50.bytes, q10.bytes);
}

TEST(JpegCodec, QualityControlsFidelity) {
  const Raster img = test_photo();
  const double s90 = ssim(img, encode(ImageFormat::kJpeg, img, 90).decoded);
  const double s30 = ssim(img, encode(ImageFormat::kJpeg, img, 30).decoded);
  const double s5 = ssim(img, encode(ImageFormat::kJpeg, img, 5).decoded);
  EXPECT_GT(s90, s30);
  EXPECT_GT(s30, s5);
  EXPECT_GT(s90, 0.9);
}

TEST(JpegCodec, DecodedDimensionsMatch) {
  Rng rng(2);
  const Raster img = synth_image(rng, ImageClass::kScreenshot, 41, 29);  // non-multiple of 8
  const Encoded enc = encode(ImageFormat::kJpeg, img, 80);
  EXPECT_EQ(enc.decoded.width(), 41);
  EXPECT_EQ(enc.decoded.height(), 29);
}

TEST(JpegCodec, DropsAlpha) {
  Rng rng(3);
  Raster img = synth_image(rng, ImageClass::kLogo, 32, 32);
  img.at(0, 0).a = 0;  // ensure transparency
  const Encoded enc = encode(ImageFormat::kJpeg, img, 80);
  EXPECT_FALSE(enc.decoded.has_alpha());
}

TEST(PngCodec, LosslessRoundTrip) {
  Rng rng(4);
  const Raster img = synth_image(rng, ImageClass::kLogo, 48, 48);
  const Encoded enc = encode(ImageFormat::kPng, img, 100);
  EXPECT_TRUE(img.pixels() == enc.decoded.pixels());
  EXPECT_DOUBLE_EQ(ssim(img, enc.decoded), 1.0);
}

TEST(PngCodec, FlatArtSmallerThanJpegAtHighQuality) {
  Rng rng(5);
  Raster img(64, 64, Pixel{200, 30, 30, 255});
  img.fill_rect(10, 10, 20, 20, Pixel{30, 30, 200, 255});
  EXPECT_LT(encode(ImageFormat::kPng, img, 100).bytes, encode(ImageFormat::kJpeg, img, 95).bytes);
}

TEST(PngCodec, PhotoLargerThanJpeg) {
  const Raster img = test_photo(6);
  EXPECT_GT(encode(ImageFormat::kPng, img, 100).bytes, encode(ImageFormat::kJpeg, img, 85).bytes);
}

TEST(WebpCodec, BeatsJpegAtSameQuality) {
  const Raster img = test_photo(7, 96, 96);
  const Encoded jpeg = encode(ImageFormat::kJpeg, img, 80);
  const Encoded webp = encode(ImageFormat::kWebp, img, 80);
  EXPECT_LT(webp.bytes, jpeg.bytes);
  // And not at a big fidelity cost.
  EXPECT_GT(ssim(img, webp.decoded), ssim(img, jpeg.decoded) - 0.05);
}

TEST(WebpCodec, PreservesAlpha) {
  Rng rng(8);
  Raster img = synth_image(rng, ImageClass::kLogo, 40, 40);
  img.at(3, 3).a = 0;
  const Encoded enc = encode(ImageFormat::kWebp, img, 80);
  EXPECT_TRUE(enc.decoded.has_alpha());
}

TEST(WebpCodec, LosslessBeatsPng) {
  Rng rng(9);
  const Raster img = synth_image(rng, ImageClass::kLogo, 48, 48);
  EXPECT_LT(encode(ImageFormat::kWebp, img, 100).bytes, encode(ImageFormat::kPng, img, 100).bytes);
  EXPECT_TRUE(img.pixels() == encode(ImageFormat::kWebp, img, 100).decoded.pixels());
}

TEST(NaturalFormat, PhotosAreJpegFlatArtIsPng) {
  EXPECT_EQ(natural_format(test_photo(10)), ImageFormat::kJpeg);
  Rng rng(11);
  Raster logo = synth_image(rng, ImageClass::kLogo, 48, 48);
  EXPECT_EQ(natural_format(logo), ImageFormat::kPng);
  // Anything transparent must be PNG.
  Raster transparent = test_photo(12);
  transparent.at(0, 0).a = 10;
  EXPECT_EQ(natural_format(transparent), ImageFormat::kPng);
}

// Byte cost scales with content complexity: noisy photos cost more than
// gradients at the same size/quality for every lossy codec.
class LossyCostTest : public ::testing::TestWithParam<ImageFormat> {};

TEST_P(LossyCostTest, ComplexityRaisesCost) {
  if (GetParam() == ImageFormat::kPng) GTEST_SKIP();
  Rng rng(13);
  const Raster photo = synth_image(rng, ImageClass::kPhoto, 64, 64);
  const Raster gradient = synth_image(rng, ImageClass::kGradient, 64, 64);
  EXPECT_GT(encode(GetParam(), photo, 75).bytes, encode(GetParam(), gradient, 75).bytes);
}

INSTANTIATE_TEST_SUITE_P(Formats, LossyCostTest,
                         ::testing::Values(ImageFormat::kJpeg, ImageFormat::kWebp),
                         [](const auto& info) {
                           return info.param == ImageFormat::kJpeg ? "jpeg" : "webp";
                         });

}  // namespace
}  // namespace aw4a::imaging
