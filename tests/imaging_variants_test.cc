#include "imaging/variants.h"

#include <gtest/gtest.h>
#include <memory>

#include "util/rng.h"

namespace aw4a::imaging {
namespace {

std::shared_ptr<const SourceImage> make_asset(ImageClass cls, Bytes wire = 120 * kKB,
                                              std::uint64_t seed = 1) {
  Rng rng(seed);
  return std::make_shared<const SourceImage>(make_source_image(rng, cls, wire));
}

TEST(SourceImage, WireBytesMatchTarget) {
  const auto asset = make_asset(ImageClass::kPhoto, 200 * kKB);
  EXPECT_EQ(asset->wire_bytes, 200 * kKB);
  EXPECT_GT(asset->byte_scale, 0.0);
  EXPECT_GT(asset->display_w, 0);
  EXPECT_GT(asset->display_area(), 0.0);
}

TEST(SourceImage, LogosShipAsPngPhotosAsJpeg) {
  int png_logos = 0;
  int jpeg_photos = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    if (make_asset(ImageClass::kLogo, 30 * kKB, seed)->format == ImageFormat::kPng) ++png_logos;
    if (make_asset(ImageClass::kPhoto, 150 * kKB, seed)->format == ImageFormat::kJpeg) {
      ++jpeg_photos;
    }
  }
  EXPECT_GE(png_logos, 6);
  EXPECT_GE(jpeg_photos, 6);
}

TEST(VariantLadder, OriginalIsIdentity) {
  const auto asset = make_asset(ImageClass::kPhoto);
  VariantLadder ladder(asset);
  const ImageVariant orig = ladder.original();
  EXPECT_TRUE(orig.is_original);
  EXPECT_DOUBLE_EQ(orig.ssim, 1.0);
  EXPECT_DOUBLE_EQ(orig.scale, 1.0);
  EXPECT_EQ(orig.bytes, asset->wire_bytes);
}

TEST(VariantLadder, ResolutionFamilyDescendsInScaleAndSsim) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto));
  const auto& family = ladder.resolution_family(ImageFormat::kJpeg);
  ASSERT_FALSE(family.empty());
  for (std::size_t i = 1; i < family.size(); ++i) {
    EXPECT_LT(family[i].scale, family[i - 1].scale);
  }
  // SSIM broadly decreases down the ladder (allowing small non-monotone
  // wiggles, which are the paper's Fig. 8 point).
  EXPECT_LT(family.back().ssim, 1.0);
  EXPECT_LT(family.back().ssim, family.front().ssim + 0.05);
}

TEST(VariantLadder, ResolutionFamilyIsMemoized) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto));
  const auto* first = &ladder.resolution_family(ImageFormat::kJpeg);
  const auto* second = &ladder.resolution_family(ImageFormat::kJpeg);
  EXPECT_EQ(first, second);
}

TEST(VariantLadder, QualityFamilyEmptyForPng) {
  VariantLadder ladder(make_asset(ImageClass::kLogo, 40 * kKB, 3));
  if (ladder.original().format == ImageFormat::kPng) {
    EXPECT_TRUE(ladder.quality_family(ImageFormat::kPng).empty());
  }
  // The WebP quality family is available regardless.
  EXPECT_FALSE(ladder.quality_family(ImageFormat::kWebp).empty() &&
               ladder.original().quality <= 35);
}

TEST(VariantLadder, WebpFullLosslessForPngSources) {
  const auto asset = make_asset(ImageClass::kLogo, 50 * kKB, 5);
  if (asset->format != ImageFormat::kPng) GTEST_SKIP();
  VariantLadder ladder(asset);
  const ImageVariant& webp = ladder.webp_full();
  EXPECT_EQ(webp.format, ImageFormat::kWebp);
  EXPECT_DOUBLE_EQ(webp.ssim, 1.0);       // lossless transcode
  EXPECT_LT(webp.bytes, asset->wire_bytes);  // and smaller (the whole point)
}

TEST(VariantLadder, CheapestWithSsimRespectsFloorAndImproves) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto, 160 * kKB, 7));
  const auto strict = ladder.cheapest_fullres_with_ssim_at_least(0.995);
  const auto loose = ladder.cheapest_fullres_with_ssim_at_least(0.9);
  ASSERT_TRUE(strict.has_value());
  ASSERT_TRUE(loose.has_value());
  EXPECT_GE(strict->ssim, 0.995);
  EXPECT_GE(loose->ssim, 0.9);
  EXPECT_LE(loose->bytes, strict->bytes);
  EXPECT_LE(loose->bytes, ladder.original().bytes);
}

TEST(VariantLadder, BytesEfficiencyPositiveForReduciblePhotos) {
  VariantLadder ladder(make_asset(ImageClass::kPhoto, 180 * kKB, 9));
  EXPECT_GT(ladder.bytes_efficiency(0.9), 0.0);
}

TEST(VariantLadder, RenderVariantMatchesDimensions) {
  const auto asset = make_asset(ImageClass::kPhoto);
  VariantLadder ladder(asset);
  const auto& family = ladder.resolution_family(asset->format);
  ASSERT_FALSE(family.empty());
  const Raster shown = render_variant(*asset, family.front());
  EXPECT_EQ(shown.width(), asset->original.width());
  EXPECT_EQ(shown.height(), asset->original.height());
}

TEST(MeasureVariant, ByteScaleApplied) {
  const auto asset = make_asset(ImageClass::kPhoto, 300 * kKB, 11);
  const ImageVariant v = measure_variant(*asset, asset->format, 1.0, asset->ship_quality);
  // Re-encoding the already-decoded original at ship quality lands near the
  // shipped wire size (within re-encode losses).
  EXPECT_GT(v.bytes, asset->wire_bytes / 2);
  EXPECT_LT(v.bytes, asset->wire_bytes * 2);
}

class LadderClassTest : public ::testing::TestWithParam<ImageClass> {};

TEST_P(LadderClassTest, EveryClassYieldsAWorkingLadder) {
  VariantLadder ladder(make_asset(GetParam(), 80 * kKB, 21));
  ladder.warm();
  EXPECT_FALSE(ladder.resolution_family(ladder.original().format).empty());
  const auto v = ladder.cheapest_fullres_with_ssim_at_least(0.9);
  ASSERT_TRUE(v.has_value());
  EXPECT_GE(v->ssim, 0.9);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, LadderClassTest, ::testing::ValuesIn(kAllImageClasses),
                         [](const auto& info) {
                           std::string name = to_string(info.param);
                           std::erase(name, '-');
                           return name;
                         });

}  // namespace
}  // namespace aw4a::imaging
