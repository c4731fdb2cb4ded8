// Golden regression tests: exact values pinned for fixed seeds. These fail
// on ANY behavioural change to the RNG, corpus generation, codecs or
// optimizers — by design. If a change is intentional, re-pin the constants
// and say so in the commit; if it is not, you just caught a regression no
// tolerance-band test would see.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "dataset/corpus.h"
#include "imaging/codec.h"
#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "imaging/variants.h"
#include "net/compress.h"
#include "util/hash.h"
#include "util/rng.h"

namespace aw4a {
namespace {

TEST(Golden, RngStreamStableAcrossConstructions) {
  Rng fresh(42);
  const std::uint64_t a = fresh.next_u64();
  const std::uint64_t b = fresh.next_u64();
  Rng again(42);
  EXPECT_EQ(again.next_u64(), a);
  EXPECT_EQ(again.next_u64(), b);
  // Forked streams are equally stable.
  EXPECT_EQ(Rng(42).fork("x").next_u64(), Rng(42).fork("x").next_u64());
}

// The constants below were produced by this implementation and are asserted
// exactly. Update them deliberately or not at all.
class GoldenValues : public ::testing::Test {
 protected:
  static web::WebPage page() {
    dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 777, .rich = true});
    Rng rng(777);
    return gen.make_page(rng, from_mb(1.5), gen.global_profile());
  }
};

TEST_F(GoldenValues, CorpusPageIsByteStable) {
  const web::WebPage p = page();
  // Pin the structure rather than one magic number: two independent builds
  // must agree bit-for-bit on every object.
  const web::WebPage q = page();
  ASSERT_EQ(p.objects.size(), q.objects.size());
  for (std::size_t i = 0; i < p.objects.size(); ++i) {
    EXPECT_EQ(p.objects[i].id, q.objects[i].id);
    EXPECT_EQ(p.objects[i].transfer_bytes, q.objects[i].transfer_bytes);
    EXPECT_EQ(p.objects[i].raw_bytes, q.objects[i].raw_bytes);
    EXPECT_EQ(p.objects[i].injected_by, q.objects[i].injected_by);
  }
  EXPECT_EQ(p.layout.size(), q.layout.size());
}

TEST_F(GoldenValues, GzipOfFixedTextIsStable) {
  // A 20 KB JS-like body: seeded lines of keywords and identifiers.
  Rng rng(99);
  static const char* kTokens[] = {"function ", "return ", "const ", "if (", ") {",
                                  "} else {", "this.", "window.", "=== ", "foo",
                                  "bar", "baz", "qux"};
  std::string body;
  while (body.size() < 20000) {
    const int tokens = static_cast<int>(rng.uniform_int(3, 9));
    for (int t = 0; t < tokens; ++t) body += kTokens[rng.uniform_int(0, 12)];
    body += '\n';
  }
  body.resize(20000);
  const Bytes first = net::gzip_size(body);
  EXPECT_EQ(net::gzip_size(body), first);
  EXPECT_GT(first, 1000u);   // sanity: real compression happened
  EXPECT_LT(first, 12000u);  // and a real ratio
}

TEST_F(GoldenValues, SsimOfFixedPairIsStable) {
  Rng rng(5);
  const imaging::Raster a = imaging::synth_image(rng, imaging::ImageClass::kPhoto, 64, 64);
  const imaging::Raster b = imaging::synth_image(rng, imaging::ImageClass::kPhoto, 64, 64);
  const double s1 = imaging::ssim(a, b);
  const double s2 = imaging::ssim(a, b);
  EXPECT_DOUBLE_EQ(s1, s2);
  EXPECT_GT(s1, 0.0);
  EXPECT_LT(s1, 1.0);
}

TEST_F(GoldenValues, PipelineResultIsRunToRunIdentical) {
  auto run = [] {
    const web::WebPage p = page();
    core::DeveloperConfig config;
    config.measure_qfs = false;
    const auto result =
        core::Aw4aPipeline(config).transcode_to_target(p, p.transfer_size() * 7 / 10);
    return std::make_tuple(result.result_bytes, result.quality.qss,
                           result.served.images.size(), result.served.scripts.size());
  };
  EXPECT_EQ(run(), run());
}

std::uint64_t digest(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = hash_mix(0, static_cast<std::uint64_t>(bytes.size()));
  for (const std::uint8_t b : bytes) h = hash_mix(h, std::uint64_t{b});
  return h;
}

std::uint64_t digest(const imaging::Raster& img) {
  std::uint64_t h = hash_mix(hash_mix(0, static_cast<std::uint64_t>(img.width())),
                             static_cast<std::uint64_t>(img.height()));
  for (const imaging::Pixel& p : img.pixels()) {
    h = hash_mix(h, std::uint64_t{p.r} | std::uint64_t{p.g} << 8 | std::uint64_t{p.b} << 16 |
                        std::uint64_t{p.a} << 24);
  }
  return h;
}

TEST_F(GoldenValues, RansLadderBlobsAndDecodedPixelsAreFrozen) {
  // The rANS coder's behavioural guard: blob bytes and decoded pixels of a
  // full 7-rung JPEG ladder, pinned per rung. Any encoder, table-format or
  // decoder change that moves a single bit fails here, whatever code path
  // produced it.
  Rng rng(109);
  const imaging::Raster img = imaging::synth_image(rng, imaging::ImageClass::kPhoto, 93, 61);
  const int qualities[] = {92, 85, 75, 65, 55, 45, 35};
  const std::uint64_t kBlob[] = {
      3949327602682609860ull,  1485902762657300197ull,  15422431590275258179ull,
      16690759433601067170ull, 4831992642610113582ull,  2152208857444615914ull,
      13637352341013496549ull};
  const std::uint64_t kPixels[] = {
      6248505863233932495ull,  12634197033270935894ull, 18228705902510376062ull,
      15147453469229470598ull, 5579780512208112106ull,  10019017943764615049ull,
      16462232513090733857ull};
  for (std::size_t i = 0; i < std::size(qualities); ++i) {
    const imaging::Encoded enc =
        imaging::encode(imaging::ImageFormat::kJpeg, img, qualities[i],
                        imaging::EntropyBackend::kRans);
    const imaging::Raster decoded = imaging::lossy_decode(enc.payload);
    EXPECT_EQ(digest(enc.payload), kBlob[i]) << "q" << qualities[i];
    EXPECT_EQ(digest(decoded), kPixels[i]) << "q" << qualities[i];
    EXPECT_TRUE(decoded.pixels() == enc.decoded.pixels()) << "q" << qualities[i];
  }
}

// The two ways into a codec: one call, or the quality-independent half once
// and then one rung.
imaging::Encoded encode_single(imaging::ImageFormat format, const imaging::Raster& img,
                               int quality, imaging::EntropyBackend backend) {
  return imaging::encode(format, img, quality, backend);
}

imaging::Encoded encode_factored(imaging::ImageFormat format, const imaging::Raster& img,
                                 int quality, imaging::EntropyBackend backend) {
  return imaging::encode_prepared(imaging::prepare(format, img), quality, backend);
}

TEST_F(GoldenValues, CodecOutputsAreFrozen) {
  // Every format's wire accounting, rANS payload and decoded pixels at both
  // ends of the quality range and two mid rungs, under both backends and
  // through both entry paths, for an opaque photo and a logo with a real
  // alpha gradient (kept by WebP and PNG, composited by JPEG). Covers what
  // the ladder pins do not: WebP under rANS, header_bytes, q=1 and q=100.
  Rng photo_rng(2401);
  const imaging::Raster photo =
      imaging::synth_image(photo_rng, imaging::ImageClass::kPhoto, 75, 53);
  Rng logo_rng(2402);
  imaging::Raster logo = imaging::synth_image(logo_rng, imaging::ImageClass::kLogo, 42, 34);
  for (int y = 0; y < logo.height(); ++y) {
    for (int x = 0; x < logo.width(); ++x) {
      logo.at(x, y).a = static_cast<std::uint8_t>(40 + (x * 5 + y * 3) % 215);
    }
  }
  const std::pair<const char*, const imaging::Raster*> images[] = {{"photo", &photo},
                                                                  {"logo", &logo}};
  const imaging::ImageFormat formats[] = {imaging::ImageFormat::kJpeg,
                                          imaging::ImageFormat::kWebp,
                                          imaging::ImageFormat::kPng};
  // [image][format], formats in the order above.
  const std::uint64_t kDigest[2][3] = {
      {15336012462159651916ull, 12314780146133911756ull, 4201138528879571520ull},
      {13333915993611584224ull, 17619610655303678364ull, 1301317553626170528ull}};
  for (std::size_t i = 0; i < std::size(images); ++i) {
    for (std::size_t f = 0; f < std::size(formats); ++f) {
      std::uint64_t h = 0;
      for (const auto encode : {encode_single, encode_factored}) {
        for (const int q : {1, 35, 85, 100}) {
          for (const imaging::EntropyBackend backend :
               {imaging::EntropyBackend::kHuffman, imaging::EntropyBackend::kRans}) {
            const imaging::Encoded enc = encode(formats[f], *images[i].second, q, backend);
            h = hash_mix(h, static_cast<std::uint64_t>(enc.bytes));
            h = hash_mix(h, static_cast<std::uint64_t>(enc.header_bytes));
            h = hash_mix(h, digest(enc.payload));
            h = hash_mix(h, digest(enc.decoded));
          }
        }
      }
      EXPECT_EQ(h, kDigest[i][f]) << images[i].first << " format " << f;
    }
  }
}

// The seeded rich corpus and solver configs behind the tier pins: HBS with
// Muzeel and with adjustable JS, Grid Search, and the two ultra-low tiers.
std::vector<web::WebPage> tier_corpus() {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 1313, .rich = true});
  Rng rng(1313);
  std::vector<web::WebPage> pages;
  for (int i = 0; i < 12; ++i) {
    pages.push_back(gen.make_page(rng, from_kb(200.0 + 10.0 * i), gen.global_profile()));
  }
  return pages;
}

std::vector<std::pair<const char*, core::DeveloperConfig>> tier_configs() {
  core::DeveloperConfig muzeel;
  core::DeveloperConfig adjustable;
  adjustable.js_strategy = core::HbsOptions::JsStrategy::kAdjustable;
  core::DeveloperConfig grid;
  grid.stage2 = core::DeveloperConfig::Stage2::kGridSearch;
  core::DeveloperConfig ultra;
  ultra.tier_reductions = {1.5, 3.0};
  ultra.ultra_low.text_only = true;
  ultra.ultra_low.markup_rewrite = true;
  return {{"hbs/muzeel", muzeel}, {"hbs/adjustable", adjustable}, {"grid", grid}, {"ultra", ultra}};
}

TEST_F(GoldenValues, TierQualityIsFrozen) {
  // The quality layer's behavioural guard: every tier's QSS/QFS/quality bit
  // patterns, bytes and algorithm, over a seeded rich corpus with QFS on,
  // under each solver path that scores quality — HBS with Muzeel and with
  // adjustable JS (both approaches scored and compared), Grid Search, and
  // the two ultra-low tiers. Any change to how or how often QFS is computed
  // that moves a single bit of any tier fails here.
  const std::vector<web::WebPage> pages = tier_corpus();
  const auto configs = tier_configs();
  const std::uint64_t kDigest[] = {7256769464104921039ull, 12708745178222667714ull,
                                   10430937087715406325ull, 4448383752278084357ull};

  for (std::size_t c = 0; c < configs.size(); ++c) {
    const core::Aw4aPipeline pipeline(configs[c].second);
    std::uint64_t h = 0;
    for (const web::WebPage& p : pages) {
      for (const core::Tier& tier : pipeline.build_tiers(p)) {
        const core::TranscodeResult& r = tier.result;
        // A timed-out grid search is wall-clock dependent, not a golden.
        ASSERT_EQ(r.algorithm.find("timeout"), std::string::npos) << r.algorithm;
        h = hash_mix(h, r.quality.qss);
        h = hash_mix(h, r.quality.qfs);
        h = hash_mix(h, r.quality.quality);
        h = hash_mix(h, static_cast<std::uint64_t>(r.result_bytes));
        for (const char ch : r.algorithm) h = hash_mix(h, static_cast<std::uint64_t>(ch));
      }
    }
    EXPECT_EQ(h, kDigest[c]) << configs[c].first;
  }
}

std::uint64_t digest(std::uint64_t h, const imaging::ImageVariant& v) {
  h = hash_mix(h, static_cast<std::uint64_t>(v.format));
  h = hash_mix(h, v.scale);
  h = hash_mix(h, static_cast<std::uint64_t>(v.quality));
  h = hash_mix(h, static_cast<std::uint64_t>(v.bytes));
  h = hash_mix(h, v.ssim);
  h = hash_mix(h, static_cast<std::uint64_t>(v.kind));
  return hash_mix(h, static_cast<std::uint64_t>(v.alt_chars));
}

TEST_F(GoldenValues, DefaultLadderFamiliesAreFrozen) {
  // The default ladder's rung grid (resolution steps, scale floor, quality
  // steps) and placeholder similarity, pinned through every family a
  // default-options ladder enumerates for a seeded photo and a seeded logo.
  const imaging::ImageClass classes[] = {imaging::ImageClass::kPhoto,
                                         imaging::ImageClass::kLogo};
  const std::uint64_t kDigest[] = {12601918227026597008ull, 10175590457426429680ull};
  for (std::size_t c = 0; c < std::size(classes); ++c) {
    Rng rng(4242 + c);
    auto asset = std::make_shared<const imaging::SourceImage>(
        imaging::make_source_image(rng, classes[c], from_kb(60)));
    imaging::VariantLadder ladder(asset);
    std::uint64_t h = 0;
    for (const imaging::ImageFormat f :
         {imaging::ImageFormat::kJpeg, imaging::ImageFormat::kWebp, imaging::ImageFormat::kPng}) {
      for (const imaging::ImageVariant& v : ladder.resolution_family(f)) h = digest(h, v);
      for (const imaging::ImageVariant& v : ladder.quality_family(f)) h = digest(h, v);
    }
    h = digest(h, ladder.webp_full());
    for (const std::size_t alt : {0, 40, 200}) {
      h = digest(h, imaging::placeholder_variant(*asset, alt));
    }
    EXPECT_EQ(h, kDigest[c]) << imaging::to_string(classes[c]);
  }
}

TEST_F(GoldenValues, TierDecisionsAreFrozen) {
  // The solvers' decisions, not just their scores: every served image's
  // variant (format, scale, quality, bytes, SSIM, rung kind), each tier's
  // bytes and algorithm, over the TierQualityIsFrozen corpus and configs
  // under both entropy backends. How much of each ladder family is
  // enumerated may change only while every decision stays put.
  const std::vector<web::WebPage> pages = tier_corpus();
  const auto configs = tier_configs();
  const imaging::EntropyBackend backends[] = {imaging::EntropyBackend::kHuffman,
                                              imaging::EntropyBackend::kRans};
  const std::uint64_t kDigest[][2] = {{16354269813657348008ull, 16482871066706391428ull},
                                      {2567603119837062819ull, 16598238413715653219ull},
                                      {936434693738311852ull, 12216997785558147712ull},
                                      {3548062698215115436ull, 3551601539039321460ull}};

  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (std::size_t b = 0; b < std::size(backends); ++b) {
      core::DeveloperConfig config = configs[c].second;
      config.entropy_backend = backends[b];
      const core::Aw4aPipeline pipeline(config);
      std::uint64_t h = 0;
      for (const web::WebPage& p : pages) {
        for (const core::Tier& tier : pipeline.build_tiers(p)) {
          const core::TranscodeResult& r = tier.result;
          ASSERT_EQ(r.algorithm.find("timeout"), std::string::npos) << r.algorithm;
          for (const auto& [id, image] : r.served.images) {
            h = hash_mix(h, id);
            h = hash_mix(h, static_cast<std::uint64_t>(image.dropped));
            h = hash_mix(h, static_cast<std::uint64_t>(image.variant.has_value()));
            if (image.variant) h = digest(h, *image.variant);
          }
          h = hash_mix(h, static_cast<std::uint64_t>(r.result_bytes));
          for (const char ch : r.algorithm) h = hash_mix(h, static_cast<std::uint64_t>(ch));
        }
      }
      EXPECT_EQ(h, kDigest[c][b]) << configs[c].first << " backend " << b;
    }
  }
}

TEST_F(GoldenValues, CountryTableIsFrozen) {
  // The calibrated table is a build artifact (tools/gen_countries.py): any
  // regeneration must be deliberate. Pin a few entries exactly.
  const dataset::Country* pk = dataset::find_country("Pakistan");
  ASSERT_NE(pk, nullptr);
  EXPECT_DOUBLE_EQ(pk->price_do, 0.96);
  const dataset::Country* hn = dataset::find_country("Honduras");
  ASSERT_NE(hn, nullptr);
  EXPECT_NEAR(hn->price_do * hn->mean_page_mb, 4.7 * 2.0 * 2.47, 0.2);
  EXPECT_EQ(dataset::countries().size(), 99u);
  EXPECT_EQ(dataset::global_price_distribution(net::PlanType::kDataOnly).size(), 206u);
}

}  // namespace
}  // namespace aw4a
