// Bit-identity of the factored encode path: for every codec and every rung
// of the full quality ladder, prepare() + encode_prepared() must produce
// EXACTLY what single-shot encode() produces — same wire bytes, same header,
// same decoded pixels. The encode-once ladder optimization is only sound
// because quality exclusively affects the post-DCT half of the pipeline;
// these tests pin that.
//
// The fault-injection section checks the other half of the contract: the
// factored entry points fire the same "codec.<fmt>.encode" fault points as
// the single-shot encoder, once per invocation, so retry and fault sweeps
// see a uniform surface.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "imaging/codec.h"
#include "imaging/synth.h"
#include "util/fault.h"
#include "util/rng.h"

namespace aw4a::imaging {
namespace {

const std::vector<int> kFullLadder = {100, 92, 85, 75, 65, 55, 45, 35, 20, 10, 1};

Raster photo_raster() {
  Rng rng(99);
  return synth_image(rng, ImageClass::kPhoto, 120, 88);  // edge blocks on both axes
}

Raster alpha_raster() {
  Rng rng(7);
  Raster img = synth_image(rng, ImageClass::kLogo, 64, 48);
  // Synth logos may or may not carry alpha; force a gradient so the alpha
  // plane path (kept by WebP/PNG, composited by JPEG) is definitely hit.
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      img.at(x, y).a = static_cast<std::uint8_t>(55 + (x * 3 + y * 2) % 200);
    }
  }
  return img;
}

void expect_identical(const Encoded& single, const Encoded& factored, ImageFormat format,
                      int quality) {
  ASSERT_EQ(single.bytes, factored.bytes)
      << static_cast<int>(format) << " q=" << quality << ": wire bytes diverged";
  ASSERT_EQ(single.header_bytes, factored.header_bytes)
      << static_cast<int>(format) << " q=" << quality;
  ASSERT_EQ(single.quality, factored.quality) << static_cast<int>(format) << " q=" << quality;
  ASSERT_EQ(single.format, factored.format) << static_cast<int>(format) << " q=" << quality;
  ASSERT_TRUE(single.decoded.pixels() == factored.decoded.pixels())
      << static_cast<int>(format) << " q=" << quality << ": decoded raster diverged";
}

class EncodeOnceTest : public ::testing::TestWithParam<ImageFormat> {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_P(EncodeOnceTest, PreparedRungsBitIdenticalToSingleShotAcrossLadder) {
  const ImageFormat format = GetParam();
  const Raster img = photo_raster();
  const Prepared prep = prepare(format, img);
  ASSERT_EQ(prep.format, format);
  for (const int q : kFullLadder) {
    const Encoded single = encode(format, img, q);
    const Encoded factored = encode_prepared(prep, q);
    expect_identical(single, factored, format, q);
  }
}

TEST_P(EncodeOnceTest, PreparedRungsBitIdenticalOnAlphaContent) {
  const ImageFormat format = GetParam();
  const Raster img = alpha_raster();
  ASSERT_TRUE(img.has_alpha());
  const Prepared prep = prepare(format, img);
  for (const int q : kFullLadder) {
    expect_identical(encode(format, img, q), encode_prepared(prep, q), format, q);
  }
}

TEST_P(EncodeOnceTest, RungOrderDoesNotMatter) {
  // Re-quantization from shared coefficients must be stateless: encoding the
  // ladder backwards, or the same rung twice, changes nothing.
  const ImageFormat format = GetParam();
  const Raster img = photo_raster();
  const Prepared prep = prepare(format, img);
  const Encoded first = encode_prepared(prep, 75);
  for (auto it = kFullLadder.rbegin(); it != kFullLadder.rend(); ++it) {
    (void)encode_prepared(prep, *it);
  }
  const Encoded again = encode_prepared(prep, 75);
  expect_identical(first, again, format, 75);
}

std::string format_name(const ::testing::TestParamInfo<ImageFormat>& info) {
  switch (info.param) {
    case ImageFormat::kJpeg: return "jpeg";
    case ImageFormat::kPng: return "png";
    case ImageFormat::kWebp: return "webp";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(AllFormats, EncodeOnceTest,
                         ::testing::Values(ImageFormat::kJpeg, ImageFormat::kWebp,
                                           ImageFormat::kPng),
                         format_name);

// --- Fault-point parity between the single-shot and factored paths ---

class EncodeOnceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }
};

TEST_F(EncodeOnceFaultTest, EachEntryPointHitsItsFormatPointOnce) {
  // A point counts hits only while it is armed: arm all three codec points
  // so that they count every hit but never fire.
  const char* const kPoints[] = {"codec.jpeg.encode", "codec.png.encode", "codec.webp.encode"};
  for (const char* point : kPoints) {
    fault::configure(point, {.every_nth = 1,
                             .skip_first = std::numeric_limits<std::uint64_t>::max()});
  }
  using Hits = std::array<std::uint64_t, 3>;  // jpeg, png, webp
  auto hits = [&] {
    Hits out{};
    for (const fault::PointStats& p : fault::stats()) {
      for (std::size_t i = 0; i < std::size(kPoints); ++i) {
        if (p.name == kPoints[i]) out[i] = p.hits;
      }
    }
    return out;
  };
  auto delta = [&](const std::function<void()>& call) {
    const Hits before = hits();
    call();
    const Hits after = hits();
    return Hits{after[0] - before[0], after[1] - before[1], after[2] - before[2]};
  };

  const Raster img = alpha_raster();
  const std::pair<ImageFormat, Hits> formats[] = {{ImageFormat::kJpeg, {1, 0, 0}},
                                                  {ImageFormat::kPng, {0, 1, 0}},
                                                  {ImageFormat::kWebp, {0, 0, 1}}};
  for (const auto& [format, once] : formats) {
    SCOPED_TRACE(testing::Message() << "format=" << static_cast<int>(format));
    // prepare(kPng) only copies pixels, so it hits no point.
    EXPECT_EQ(delta([&] { (void)prepare(format, img); }),
              format == ImageFormat::kPng ? Hits{} : once);
    const Prepared prep = prepare(format, img);
    for (const EntropyBackend backend : {EntropyBackend::kHuffman, EntropyBackend::kRans}) {
      for (const int q : {75, 100}) {  // 100 is WebP's lossless mode
        SCOPED_TRACE(testing::Message() << "q=" << q << " backend=" << static_cast<int>(backend));
        EXPECT_EQ(delta([&] { (void)encode(format, img, q, backend); }), once);
        EXPECT_EQ(delta([&] { (void)encode_prepared(prep, q, backend); }), once);
      }
    }
  }
}

TEST_F(EncodeOnceFaultTest, PrepareFiresTheCodecFaultPoint) {
  fault::configure("codec.jpeg.encode", {.probability = 1.0});
  const Raster img = photo_raster();
  EXPECT_THROW((void)prepare(ImageFormat::kJpeg, img), fault::InjectedFault);
  fault::configure("codec.webp.encode", {.probability = 1.0});
  EXPECT_THROW((void)prepare(ImageFormat::kWebp, img), fault::InjectedFault);
}

TEST_F(EncodeOnceFaultTest, EncodePreparedFiresTheCodecFaultPoint) {
  const Raster img = photo_raster();
  const Prepared jpeg_prep = prepare(ImageFormat::kJpeg, img);
  const Prepared webp_prep = prepare(ImageFormat::kWebp, img);
  fault::configure("codec.jpeg.encode", {.probability = 1.0});
  EXPECT_THROW((void)encode_prepared(jpeg_prep, 75), fault::InjectedFault);
  fault::configure("codec.jpeg.encode", {});
  fault::configure("codec.webp.encode", {.probability = 1.0});
  EXPECT_THROW((void)encode_prepared(webp_prep, 75), fault::InjectedFault);
}

TEST_F(EncodeOnceFaultTest, RungsAfterTransientFaultStayBitIdentical) {
  // One injected fault on the first prepared encode; the retry-visible
  // contract is exercised at the variants layer, but even at this layer a
  // post-fault rung must be unaffected by the earlier failure.
  const Raster img = photo_raster();
  const Prepared prep = prepare(ImageFormat::kJpeg, img);
  const Encoded expected = encode(ImageFormat::kJpeg, img, 65);

  fault::configure("codec.jpeg.encode", {.probability = 1.0, .max_fires = 1});
  EXPECT_THROW((void)encode_prepared(prep, 65), fault::InjectedFault);
  const Encoded after = encode_prepared(prep, 65);
  expect_identical(expected, after, ImageFormat::kJpeg, 65);
}

}  // namespace
}  // namespace aw4a::imaging
