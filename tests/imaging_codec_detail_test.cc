// Tests of the codec internals: the PNG filter stream, the alpha-plane cost,
// and the lossy pipeline's cost-model knobs (codec_detail.h).
#include "imaging/codec_detail.h"

#include <gtest/gtest.h>

#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "net/compress.h"
#include "util/hash.h"
#include "util/rng.h"

namespace aw4a::imaging::detail {
namespace {

// A single-shot lossy encode under custom params: both halves, composed as
// encode() composes them.
Encoded lossy_encode(const Raster& img, int quality, const LossyParams& params) {
  return lossy_encode_prepared(prepare_lossy(img, params), quality, params);
}

TEST(PngFilterStream, SizeMatchesRowLayout) {
  Raster img(10, 7, Pixel{50, 60, 70, 255});
  const auto rgb = png_filter_stream(img, /*include_alpha=*/false);
  EXPECT_EQ(rgb.size(), 7u * (1u + 10u * 3u));  // filter byte + RGB per row
  const auto rgba = png_filter_stream(img, /*include_alpha=*/true);
  EXPECT_EQ(rgba.size(), 7u * (1u + 10u * 4u));
}

TEST(PngFilterStream, FlatImageFiltersToNearZeros) {
  Raster img(32, 32, Pixel{123, 45, 67, 255});
  const auto stream = png_filter_stream(img, false);
  // A flat image filters into long zero runs -> compresses to almost nothing.
  EXPECT_LT(net::gzip_size(stream), stream.size() / 20);
}

TEST(PngFilterStream, NoisyImageResistsFiltering) {
  Rng rng(1);
  Raster img(32, 32);
  for (auto& p : img.pixels()) {
    p = Pixel{static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
              static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
              static_cast<std::uint8_t>(rng.uniform_int(0, 255)), 255};
  }
  const auto stream = png_filter_stream(img, false);
  EXPECT_GT(net::gzip_size(stream), stream.size() * 2 / 3);
}

TEST(PngFilter, StreamDigestIsFrozen) {
  // One digest over png_filter_stream's bytes, with and without alpha, for
  // seeded smooth, noisy and flat rasters, including 1-px-wide and
  // 1-px-tall ones (no left / no up neighbours). Any change to the filter
  // loops must reproduce every byte and every per-row filter choice.
  Rng rng(2027);
  std::uint64_t digest = 0;
  auto fold = [&](const Raster& img) {
    for (const bool alpha : {false, true}) {
      const auto stream = png_filter_stream(img, alpha);
      digest = hash_mix(digest, static_cast<std::uint64_t>(stream.size()));
      for (const std::uint8_t byte : stream) digest = hash_mix(digest, std::uint64_t{byte});
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
    Raster img = synth_image(rng, cls, 45, 31);
    fold(img);
    for (Pixel& p : img.pixels()) p.a = static_cast<std::uint8_t>(p.r ^ p.b);
    fold(img);
  }
  fold(noise(1, 1));
  fold(noise(1, 29));
  fold(noise(37, 1));
  fold(noise(23, 17));
  fold(Raster(19, 11, Pixel{200, 100, 50, 128}));
  EXPECT_EQ(digest, 0xed9ba072b812502cULL) << std::hex << digest;
}

TEST(AlphaPlaneCost, FlatAlphaIsCheapVariedAlphaIsNot) {
  Raster opaque(48, 48, Pixel{10, 10, 10, 255});
  const Bytes flat_cost = alpha_plane_cost(opaque);
  Rng rng(2);
  Raster varied = opaque;
  for (auto& p : varied.pixels()) p.a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  EXPECT_LT(flat_cost, alpha_plane_cost(varied) / 4);
}

TEST(LossyEncode, PayloadScaleScalesPayloadOnly) {
  Rng rng(3);
  const Raster img = synth_image(rng, ImageClass::kPhoto, 64, 64);
  LossyParams base{.format = ImageFormat::kJpeg,
                   .payload_scale = 1.0,
                   .hf_quant_scale = 1.0,
                   .header_bytes = 100,
                   .alpha = false};
  LossyParams half = base;
  half.payload_scale = 0.5;
  const Encoded full = lossy_encode(img, 80, base);
  const Encoded scaled = lossy_encode(img, 80, half);
  EXPECT_EQ(full.header_bytes, 100u);
  EXPECT_NEAR(static_cast<double>(scaled.payload_bytes()),
              static_cast<double>(full.payload_bytes()) * 0.5,
              static_cast<double>(full.payload_bytes()) * 0.02 + 2.0);
  // The decoded pixels are identical — payload_scale is a cost model knob,
  // not a quality knob.
  EXPECT_TRUE(full.decoded.pixels() == scaled.decoded.pixels());
}

TEST(LossyEncode, FlatterHighFrequencyTablesKeepMoreDetail) {
  Rng rng(4);
  const Raster img = synth_image(rng, ImageClass::kTextBanner, 64, 64);
  LossyParams coarse{.format = ImageFormat::kJpeg,
                     .payload_scale = 1.0,
                     .hf_quant_scale = 1.0,
                     .header_bytes = 0,
                     .alpha = false};
  LossyParams fine = coarse;
  fine.hf_quant_scale = 0.5;  // halve HF quantization steps
  const double ssim_coarse = ssim(img, lossy_encode(img, 50, coarse).decoded);
  const double ssim_fine = ssim(img, lossy_encode(img, 50, fine).decoded);
  EXPECT_GE(ssim_fine, ssim_coarse);
  // And costs more bytes, as it must.
  EXPECT_GE(lossy_encode(img, 50, fine).bytes, lossy_encode(img, 50, coarse).bytes);
}

TEST(LossyEncode, AlphaFlagControlsTransparencyAndCost) {
  Rng rng(5);
  Raster img = synth_image(rng, ImageClass::kLogo, 40, 40);
  img.at(0, 0).a = 0;
  LossyParams no_alpha{.format = ImageFormat::kJpeg,
                       .payload_scale = 1.0,
                       .hf_quant_scale = 1.0,
                       .header_bytes = 0,
                       .alpha = false};
  LossyParams with_alpha = no_alpha;
  with_alpha.alpha = true;
  const Encoded flat = lossy_encode(img, 80, no_alpha);
  const Encoded kept = lossy_encode(img, 80, with_alpha);
  EXPECT_FALSE(flat.decoded.has_alpha());
  EXPECT_TRUE(kept.decoded.has_alpha());
  EXPECT_GT(kept.bytes, flat.bytes);  // the alpha plane costs bytes
}

TEST(LossyEncode, QualityOneStillDecodes) {
  Rng rng(6);
  const Raster img = synth_image(rng, ImageClass::kGradient, 24, 24);
  LossyParams params{.format = ImageFormat::kJpeg,
                     .payload_scale = 1.0,
                     .hf_quant_scale = 1.0,
                     .header_bytes = 10,
                     .alpha = false};
  const Encoded enc = lossy_encode(img, 1, params);  // worst quality
  EXPECT_EQ(enc.decoded.width(), 24);
  EXPECT_GT(enc.bytes, 10u);
  EXPECT_LT(ssim(img, enc.decoded), 1.0);
}

}  // namespace
}  // namespace aw4a::imaging::detail
