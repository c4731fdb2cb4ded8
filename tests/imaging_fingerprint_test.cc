#include "imaging/fingerprint.h"

#include <gtest/gtest.h>
#include <memory>

#include "imaging/raster.h"
#include "imaging/variants.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

SourceImage make_asset(ImageClass cls, Bytes wire = 120 * kKB, std::uint64_t seed = 1) {
  Rng rng(seed);
  return make_source_image(rng, cls, wire);
}

// ---------------------------------------------------------------------------
// Exact fingerprints
// ---------------------------------------------------------------------------

TEST(RasterFingerprint, DeterministicAndPixelSensitive) {
  const SourceImage a = make_asset(ImageClass::kPhoto);
  EXPECT_EQ(raster_fingerprint(a.original), raster_fingerprint(a.original));

  SourceImage b = a;
  b.original.at(0, 0).r ^= 1;  // one bit of one channel of one pixel
  EXPECT_NE(raster_fingerprint(a.original), raster_fingerprint(b.original));
}

TEST(RasterFingerprint, DimensionSensitiveBeyondPixelBytes) {
  // Same pixel bytes in a different geometry must not collide.
  Raster wide(4, 2, Pixel{10, 20, 30, 255});
  Raster tall(2, 4, Pixel{10, 20, 30, 255});
  EXPECT_NE(raster_fingerprint(wide), raster_fingerprint(tall));
}

TEST(AssetFingerprint, IgnoresIdentityAndDisplayGeometry) {
  const SourceImage a = make_asset(ImageClass::kPhoto);
  SourceImage b = a;
  b.id = a.id + 999;  // a different page's object id for the same content
  b.display_w = a.display_w * 2;
  b.display_h = a.display_h + 17;
  EXPECT_EQ(asset_fingerprint(a), asset_fingerprint(b))
      << "content addressing must see through page identity and layout";
  EXPECT_EQ(asset_shape_fingerprint(a), asset_shape_fingerprint(b));
}

TEST(AssetFingerprint, SeesEncodeRelevantMetadata) {
  const SourceImage a = make_asset(ImageClass::kPhoto);

  SourceImage quality = a;
  quality.ship_quality = a.ship_quality - 5;
  EXPECT_NE(asset_fingerprint(a), asset_fingerprint(quality));

  SourceImage bytes = a;
  bytes.wire_bytes = a.wire_bytes + 1;
  EXPECT_NE(asset_fingerprint(a), asset_fingerprint(bytes))
      << "wire bytes feed variant byte accounting, so they are content";

  SourceImage scale = a;
  scale.byte_scale = a.byte_scale * 1.01;
  EXPECT_NE(asset_fingerprint(a), asset_fingerprint(scale));
}

TEST(AssetShapeFingerprint, IgnoresPixels) {
  const SourceImage a = make_asset(ImageClass::kPhoto);
  SourceImage b = a;
  b.original.at(1, 1).g ^= 0xFF;
  EXPECT_EQ(asset_shape_fingerprint(a), asset_shape_fingerprint(b));
  EXPECT_NE(asset_fingerprint(a), asset_fingerprint(b));
}

TEST(LadderOptionsFingerprint, SeesEveryEnumerationKnob) {
  const LadderOptions base;
  EXPECT_EQ(ladder_options_fingerprint(base), ladder_options_fingerprint(LadderOptions{}));

  LadderOptions ssim = base;
  ssim.min_ssim = 0.7;
  EXPECT_NE(ladder_options_fingerprint(base), ladder_options_fingerprint(ssim));

  LadderOptions scale = base;
  scale.scale_granularity = 0.2;
  EXPECT_NE(ladder_options_fingerprint(base), ladder_options_fingerprint(scale));

  LadderOptions steps = base;
  steps.quality_steps.push_back(25);
  EXPECT_NE(ladder_options_fingerprint(base), ladder_options_fingerprint(steps));
}

// ---------------------------------------------------------------------------
// Memo snapshot / adopt round trip
// ---------------------------------------------------------------------------

void expect_same_variant(const ImageVariant& a, const ImageVariant& b) {
  EXPECT_EQ(a.format, b.format);
  EXPECT_DOUBLE_EQ(a.scale, b.scale);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_DOUBLE_EQ(a.ssim, b.ssim);
  EXPECT_EQ(a.is_original, b.is_original);
}

/// The families VariantLadder::warm fills: both formats' resolution
/// families and the WebP transcode.
void expect_same_warm_families(VariantLadder& warmed, VariantLadder& adopted) {
  for (ImageFormat format : {warmed.asset().format, ImageFormat::kWebp}) {
    const auto& res_a = warmed.resolution_family(format);
    const auto& res_b = adopted.resolution_family(format);
    ASSERT_EQ(res_a.size(), res_b.size());
    for (std::size_t i = 0; i < res_a.size(); ++i) expect_same_variant(res_a[i], res_b[i]);
  }
  expect_same_variant(warmed.webp_full(), adopted.webp_full());
}

TEST(VariantMemo, SnapshotBeforeEnumerationIsEmpty) {
  VariantLadder ladder(std::make_shared<const SourceImage>(make_asset(ImageClass::kPhoto)));
  const VariantMemo memo = ladder.snapshot();
  EXPECT_FALSE(memo.webp_full.has_value());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(memo.res_family[i].has_value());
    EXPECT_FALSE(memo.qual_family[i].has_value());
  }
}

TEST(VariantMemo, WarmSnapshotAdoptReproducesEveryFamilyBitForBit) {
  const auto asset = std::make_shared<const SourceImage>(make_asset(ImageClass::kPhoto));
  VariantLadder warmed(asset);
  warmed.warm();
  const VariantMemo memo = warmed.snapshot();
  EXPECT_TRUE(memo.webp_full.has_value());
  // warm() fills only what the default solver reads; the quality families
  // are left for Grid Search and knapsack to enumerate lazily.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(memo.qual_family[i].has_value()) << "quality slot " << i;
  }

  // The adopting ladder must not have to re-measure anything: every warm
  // family below comes back without running a codec.
  VariantLadder adopted(asset);
  adopted.adopt(memo);
  reset_build_work_stats();
  expect_same_warm_families(warmed, adopted);
  EXPECT_EQ(build_work_stats().encodes, 0u)
      << "adopted families must serve from the memo, not re-encode";
}

TEST(VariantMemo, AdoptNeverOverwritesLocalMeasurements) {
  const auto asset = std::make_shared<const SourceImage>(make_asset(ImageClass::kPhoto));
  VariantLadder ladder(asset);
  const ImageVariant local = ladder.webp_full();

  VariantMemo memo;
  ImageVariant fake = local;
  fake.bytes = local.bytes + 12345;
  memo.webp_full = fake;
  ladder.adopt(memo);
  EXPECT_EQ(ladder.webp_full().bytes, local.bytes)
      << "locally enumerated slots win over adopted ones";
}

TEST(VariantMemo, WarmCountsTowardBuildWorkStats) {
  const auto asset = std::make_shared<const SourceImage>(make_asset(ImageClass::kPhoto));
  reset_build_work_stats();
  VariantLadder ladder(asset);
  ladder.warm();
  const BuildWorkStats stats = build_work_stats();
  EXPECT_GT(stats.encodes, 0u);
  EXPECT_GT(stats.encoded_bytes, 0u);
  // Only the quality families share a Codec::prepare, and warm() skips them.
  EXPECT_EQ(stats.prepares, 0u);
}

}  // namespace
}  // namespace aw4a::imaging
