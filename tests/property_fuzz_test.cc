// Randomized property tests: cross-module invariants checked over many
// seeded inputs. These are the "does the machinery ever lie" checks — byte
// accounting, metric bounds, determinism, optimizer contracts — independent
// of any calibration target.
#include <gtest/gtest.h>

#include <cmath>

#include "core/api.h"
#include "core/grid_search.h"
#include "core/paw.h"
#include "core/pipeline.h"
#include "core/rbr.h"
#include "imaging/fingerprint.h"
#include "web/markup.h"
#include "dataset/corpus.h"
#include "imaging/ans.h"
#include "imaging/codec.h"
#include "imaging/synth.h"
#include "net/compress.h"
#include "net/http.h"
#include "util/rng.h"

namespace aw4a {
namespace {

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

// --- byte accounting --------------------------------------------------------

TEST_P(PropertyTest, ServedPageAccountingIsAdditiveUnderRandomDecisions) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = GetParam(), .rich = true});
  Rng rng(GetParam());
  const web::WebPage page = gen.make_page(rng, from_mb(1.2), gen.global_profile());
  web::ServedPage served = web::serve_original(page);

  // Random decisions of every kind.
  for (const auto& o : page.objects) {
    switch (static_cast<int>(rng.uniform_int(0, 4))) {
      case 0:
        served.dropped.insert(o.id);
        break;
      case 1:
        served.retextured[o.id] = static_cast<Bytes>(rng.uniform_int(0, 5000));
        break;
      case 2:
        if (o.type == web::ObjectType::kImage) {
          imaging::ImageVariant v;
          v.bytes = o.transfer_bytes / 2;
          v.ssim = rng.uniform(0.5, 1.0);
          served.images[o.id] = web::ServedImage{.variant = v, .dropped = false};
        }
        break;
      default:
        break;  // leave as-is
    }
  }
  Bytes manual = 0;
  for (const auto& o : page.objects) manual += served.object_transfer(o);
  EXPECT_EQ(served.transfer_size(), manual);
}

// --- metric bounds -----------------------------------------------------------

TEST_P(PropertyTest, QualityMetricsStayInUnitInterval) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = GetParam() ^ 7, .rich = true});
  Rng rng(GetParam() ^ 7);
  const web::WebPage page = gen.make_page(rng, from_mb(1.0), gen.global_profile());
  web::ServedPage served = web::serve_original(page);
  // Drop a random half of everything.
  for (const auto& o : page.objects) {
    if (rng.bernoulli(0.5)) served.dropped.insert(o.id);
  }
  const double qss = core::compute_qss(served);
  const double qfs = core::compute_qfs(served);
  EXPECT_GE(qss, 0.0);
  EXPECT_LE(qss, 1.0);
  EXPECT_GE(qfs, -1.0);  // SSIM can in principle dip below 0
  EXPECT_LE(qfs, 1.0);
}

// --- optimizer contracts ------------------------------------------------------

TEST_P(PropertyTest, RbrResultNeverExceedsOriginalAndHonorsQt) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = GetParam() ^ 99, .rich = true});
  Rng rng(GetParam() ^ 99);
  const web::WebPage page = gen.make_page(rng, from_mb(1.0), gen.global_profile());
  core::LadderCache ladders;
  core::RbrOptions options;
  options.quality_threshold = rng.uniform(0.75, 0.95);
  web::ServedPage served = web::serve_original(page);
  const Bytes target =
      static_cast<Bytes>(static_cast<double>(page.transfer_size()) * rng.uniform(0.3, 0.95));
  const auto outcome = core::rank_based_reduce(served, target, ladders, options);
  EXPECT_LE(outcome.bytes_after, page.transfer_size());
  EXPECT_EQ(outcome.bytes_after, served.transfer_size());
  if (outcome.met_target) {
    EXPECT_LE(outcome.bytes_after, target);
  }
  for (const auto& [id, decision] : served.images) {
    if (decision.variant) {
      EXPECT_GE(decision.variant->ssim, options.quality_threshold - 1e-9);
    }
  }
}

TEST_P(PropertyTest, GridSearchFeasibleSolutionsRespectBudgetAndQt) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = GetParam() ^ 55, .rich = true});
  Rng rng(GetParam() ^ 55);
  const web::WebPage page = gen.make_page(rng, from_mb(0.7), gen.global_profile());
  if (core::rich_images(page).size() > 16) GTEST_SKIP() << "page too image-heavy";
  core::LadderCache ladders;
  core::GridSearchOptions options;
  options.timeout_seconds = 5.0;
  web::ServedPage served = web::serve_original(page);
  const Bytes target = page.transfer_size() * 85 / 100;
  const auto outcome = core::grid_search(served, target, ladders, options);
  if (outcome.met_target) {
    EXPECT_LE(served.transfer_size(), target);
    EXPECT_GE(outcome.qss, options.quality_threshold - 1e-9);
  }
}

// --- determinism --------------------------------------------------------------

TEST_P(PropertyTest, PipelineIsDeterministicPerSeed) {
  auto run = [&] {
    dataset::CorpusGenerator gen(
        dataset::CorpusOptions{.seed = GetParam() ^ 1234, .rich = true});
    Rng rng(GetParam() ^ 1234);
    const web::WebPage page = gen.make_page(rng, from_mb(0.9), gen.global_profile());
    core::DeveloperConfig config;
    config.measure_qfs = false;
    return core::Aw4aPipeline(config)
        .transcode_to_target(page, page.transfer_size() * 3 / 4)
        .result_bytes;
  };
  EXPECT_EQ(run(), run());
}

// --- compression --------------------------------------------------------------

TEST_P(PropertyTest, GzipNeverExpandsBeyondOverhead) {
  Rng rng(GetParam() ^ 31);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(rng.uniform_int(1, 30000)));
  // Mixed content: random spans and repeated spans.
  std::size_t i = 0;
  while (i < data.size()) {
    if (rng.bernoulli(0.5)) {
      const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const auto run = static_cast<std::size_t>(rng.uniform_int(1, 64));
      for (std::size_t j = 0; j < run && i < data.size(); ++j) data[i++] = b;
    } else {
      data[i++] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
  }
  EXPECT_LE(net::gzip_size(data), data.size() + 20);
  EXPECT_GT(net::gzip_size(data), 0u);
}

// --- PAW algebra ----------------------------------------------------------------

TEST_P(PropertyTest, PawReductionInverse) {
  Rng rng(GetParam() ^ 77);
  const double price = rng.uniform(0.1, 40.0);
  const double w = rng.uniform(0.5, 5.0);
  const double paw = core::paw_index({.price_pct = price, .avg_page_mb = w});
  if (paw > 1.0) {
    // Shrinking pages by exactly PAW restores the target.
    EXPECT_NEAR(core::paw_index({.price_pct = price, .avg_page_mb = w / paw}), 1.0, 1e-9);
    // per_url_target is the same statement in bytes.
    const Bytes page = from_mb(w);
    EXPECT_NEAR(static_cast<double>(core::per_url_target(page, paw)),
                static_cast<double>(page) / paw, 1.0);
  }
}

// --- cache simulator -----------------------------------------------------------

TEST_P(PropertyTest, CachedCostNeverExceedsColdCost) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = GetParam() ^ 13});
  Rng rng(GetParam() ^ 13);
  const web::WebPage page = gen.make_page(rng, from_mb(1.5), gen.global_profile());
  const double cached = page.cached_transfer_size();
  EXPECT_LE(cached, static_cast<double>(page.transfer_size()) + 1e-6);
  EXPECT_GT(cached, 0.0);
}

// --- rANS entropy coder ---------------------------------------------------

TEST_P(PropertyTest, RansRoundTripsRandomSymbolStreams) {
  Rng rng(GetParam() ^ 0xA45);
  // Random alphabet size, length, and skew each seed — including degenerate
  // shapes: single-symbol runs, uniform tables, and heavy ESCAPE folding.
  const int n_alphabet = static_cast<int>(rng.uniform_int(1, 256));
  const int length = static_cast<int>(rng.uniform_int(0, 4000));
  const double skew = rng.uniform(0.0, 3.0);
  std::vector<int> symbols(static_cast<std::size_t>(length));
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(n_alphabet), 0);
  for (int& s : symbols) {
    const double u = rng.uniform(0.0, 1.0);
    s = static_cast<int>(std::pow(u, 1.0 + skew) * n_alphabet);
    s = std::min(s, n_alphabet - 1);
    counts[static_cast<std::size_t>(s)]++;
  }
  namespace ans = imaging::ans;
  const ans::FreqTable table = ans::build_table(counts.data(), n_alphabet);
  std::vector<ans::SymbolRef> ops;
  ans::BitWriter side;
  for (const int s : symbols) {
    if (table.has(s)) {
      ops.push_back({0, static_cast<std::uint16_t>(s)});
    } else {
      ops.push_back({0, static_cast<std::uint16_t>(ans::kEscapeSymbol)});
      side.put(static_cast<std::uint32_t>(s), 8);
    }
  }
  const ans::EncodedStreams enc = ans::encode_interleaved(ops, {table});
  const std::vector<std::uint8_t> side_bytes = side.finish();
  // Decode through the production path: serialized table bytes ->
  // deserialize_packed_set -> PackedDecoder.
  std::vector<std::uint8_t> table_bytes;
  ans::serialize_table(table, table_bytes);
  ans::ByteReader table_in(table_bytes.data(), table_bytes.size());
  const ans::PackedSet set = ans::deserialize_packed_set(table_in, 1);
  ASSERT_EQ(table_in.remaining(), 0u);
  ans::PackedDecoder dec(enc.states, enc.stream.data(), enc.stream.size(), set);
  ans::BitReader side_in(side_bytes.data(), side_bytes.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    int s = dec.get(0);
    if (s == ans::kEscapeSymbol && !table.has(symbols[i])) {
      s = static_cast<int>(side_in.get(8));
    }
    ASSERT_EQ(s, symbols[i]);
  }
  dec.expect_exhausted();
}

TEST_P(PropertyTest, RansPayloadDecodeNeverReadsOutOfBounds) {
  // Truncations and random byte corruptions of a real payload blob must
  // either throw aw4a::Error or decode to something — never crash or read
  // out of bounds (the sanitizer tier-1 legs re-run this).
  Rng rng(GetParam() ^ 0xDEC0DE);
  Rng img_rng(GetParam());
  const imaging::Raster img =
      imaging::synth_image(img_rng, imaging::ImageClass::kPhoto, 48, 48);
  const int quality = static_cast<int>(rng.uniform_int(30, 95));
  const std::vector<std::uint8_t> blob =
      imaging::encode(imaging::ImageFormat::kJpeg, img, quality, imaging::EntropyBackend::kRans)
          .payload;
  ASSERT_FALSE(blob.empty());
  // Exact round trip on the pristine blob.
  (void)imaging::lossy_decode(blob);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::uint8_t> bad = blob;
    if (rng.bernoulli(0.5)) {
      bad.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(bad.size()) - 1)));
    } else {
      const int flips = static_cast<int>(rng.uniform_int(1, 8));
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bad.size()) - 1));
        bad[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
    }
    try {
      (void)imaging::lossy_decode(bad);
    } catch (const Error&) {
      // Clean rejection is the expected common case.
    }
  }
}

// --- markup rewrite container ----------------------------------------------

web::MarkupDoc random_markup_doc(Rng& rng) {
  web::MarkupDoc doc;
  doc.page_id = rng.next_u64();
  doc.viewport_w = static_cast<int>(rng.uniform_int(0, 4096));
  doc.page_height = static_cast<int>(rng.uniform_int(0, 100000));
  const auto random_text = [&rng] {
    std::string s(static_cast<std::size_t>(rng.uniform_int(0, 60)), '\0');
    // Any byte, including NULs, newlines, and digits that mimic the syntax:
    // length-prefixed fields must shield the parser from all of them.
    for (auto& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
    return s;
  };
  doc.css = random_text();
  const int n = static_cast<int>(rng.uniform_int(0, 12));
  for (int i = 0; i < n; ++i) {
    web::MarkupBlock b;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        b.kind = web::MarkupBlock::Kind::kText;
        b.text = random_text();
        break;
      case 1:
        b.kind = web::MarkupBlock::Kind::kImage;
        b.object_id = rng.next_u64();
        b.w = static_cast<int>(rng.uniform_int(0, 65535));
        b.h = static_cast<int>(rng.uniform_int(0, 65535));
        b.text = random_text();
        break;
      default:
        b.kind = web::MarkupBlock::Kind::kWidget;
        b.widget = static_cast<js::WidgetId>(rng.uniform_int(0, 1000));
        break;
    }
    doc.blocks.push_back(std::move(b));
  }
  return doc;
}

TEST_P(PropertyTest, MarkupSerializationRoundTripsRandomDocs) {
  Rng rng(GetParam() ^ 0x4157414dULL);
  for (int trial = 0; trial < 40; ++trial) {
    const web::MarkupDoc doc = random_markup_doc(rng);
    EXPECT_EQ(web::parse_markup(web::serialize_markup(doc)), doc);
  }
}

TEST_P(PropertyTest, MarkupParserNeverReadsOutOfBoundsOnCorruptBlobs) {
  // Truncations, byte corruptions, and appended garbage of a valid blob must
  // either parse (a mutation can land on another valid document) or throw
  // aw4a::Error — never crash or read OOB (the sanitizer legs re-run this).
  Rng rng(GetParam() ^ 0xC0FFEEULL);
  const std::string blob = web::serialize_markup(random_markup_doc(rng));
  ASSERT_FALSE(blob.empty());
  for (int trial = 0; trial < 120; ++trial) {
    std::string bad = blob;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        bad.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bad.size()) - 1)));
        break;
      case 1: {
        const int flips = static_cast<int>(rng.uniform_int(1, 8));
        for (int f = 0; f < flips; ++f) {
          const auto at = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(bad.size()) - 1));
          bad[at] = static_cast<char>(rng.uniform_int(0, 255));
        }
        break;
      }
      default:
        bad += static_cast<char>(rng.uniform_int(0, 255));
        break;
    }
    try {
      (void)web::parse_markup(bad);
    } catch (const Error&) {
      // Clean rejection is the expected common case.
    }
  }
  for (int trial = 0; trial < 40; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.uniform_int(0, 200)), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.uniform_int(0, 255));
    try {
      (void)web::parse_markup(garbage);
    } catch (const Error&) {
    }
  }
}

// --- serving decisions over heterogeneous ladders ---------------------------

TEST_P(PropertyTest, ServeDecisionsAreSoundOverRandomUltraLadders) {
  // Random ladders shaped like heterogeneous builds: image rungs first, then
  // ultra rungs whose reductions can plateau or regress. decide_version must
  // always return a valid index; closest_savings_tier must return the
  // earliest argmin; paw_tier's pick must be mildest-sufficient or the
  // deepest-achieved fallback.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = GetParam()});
  Rng page_rng(GetParam());
  const web::WebPage page = gen.make_page(page_rng, from_mb(0.5), gen.global_profile());
  const Bytes original = page.transfer_size();
  Rng rng(GetParam() ^ 0x1add3fULL);

  for (int trial = 0; trial < 30; ++trial) {
    std::vector<core::Tier> tiers;
    const int n = static_cast<int>(rng.uniform_int(1, 7));
    for (int i = 0; i < n; ++i) {
      core::Tier tier;
      tier.result.served = web::serve_original(page);
      // Duplicated bytes are likely (small divisor set) — plateaus on purpose.
      tier.result.result_bytes = original / static_cast<Bytes>(rng.uniform_int(1, 12));
      if (tier.result.result_bytes == 0) tier.result.result_bytes = 1;
      tier.kind = i < n / 2 ? core::TierKind::kImage
                            : (rng.bernoulli(0.5) ? core::TierKind::kTextOnly
                                                  : core::TierKind::kMarkupRewrite);
      tiers.push_back(std::move(tier));
    }

    const double preferred = rng.uniform(0.0, 99.0);
    const std::size_t by_pref = core::closest_savings_tier(tiers, preferred);
    ASSERT_LT(by_pref, tiers.size());
    const auto gap = [&](std::size_t i) {
      return std::abs(tiers[i].savings_fraction() * 100.0 - preferred);
    };
    for (std::size_t i = 0; i < tiers.size(); ++i) {
      EXPECT_GE(gap(i) + 1e-9, gap(by_pref));
      if (i < by_pref) {
        EXPECT_GT(gap(i), gap(by_pref) - 1e-9)
            << "an earlier (milder) tier tied the gap but lost the pick";
      }
    }

    for (const dataset::Country* country :
         {dataset::find_country("Nigeria"), dataset::find_country("Honduras")}) {
      ASSERT_NE(country, nullptr);
      const double paw = core::paw_index(*country, net::PlanType::kDataVoiceLowUsage);
      const std::size_t idx =
          core::paw_tier(tiers, *country, net::PlanType::kDataVoiceLowUsage);
      ASSERT_LT(idx, tiers.size());
      const double achieved = tiers[idx].achieved_reduction();
      if (achieved + 1e-9 >= paw) {
        for (std::size_t i = 0; i < tiers.size(); ++i) {
          const double other = tiers[i].achieved_reduction();
          if (other + 1e-9 >= paw) {
            // idx is the mildest sufficient tier: no sufficient tier is
            // milder, and equal ones sit at or after idx.
            EXPECT_GE(other + 1e-9, achieved);
            if (std::abs(other - achieved) <= 1e-9) {
              EXPECT_GE(i, idx);
            }
          }
        }
      } else {
        for (std::size_t i = 0; i < tiers.size(); ++i) {
          EXPECT_LE(tiers[i].achieved_reduction(), achieved + 1e-9);
          if (std::abs(tiers[i].achieved_reduction() - achieved) <= 1e-9) {
            EXPECT_GE(i, idx) << "fallback must keep the mildest index on plateaus";
          }
        }
      }
    }
  }
}

TEST_P(PropertyTest, LadderFingerprintsSeparatePlaceholderRungSpaces) {
  Rng rng(GetParam() ^ 0xF1239EULL);
  for (int trial = 0; trial < 20; ++trial) {
    imaging::LadderOptions off;
    off.min_ssim = rng.uniform(0.3, 0.9);
    off.entropy_backend =
        rng.bernoulli(0.5) ? imaging::EntropyBackend::kRans : imaging::EntropyBackend::kHuffman;
    // Toggling the rung alone always moves the fingerprint, whatever the
    // other knobs are.
    imaging::LadderOptions on = off;
    on.placeholder_rung = true;
    EXPECT_NE(imaging::ladder_options_fingerprint(off),
              imaging::ladder_options_fingerprint(on));
  }
}

// --- HTTP parser robustness -----------------------------------------------

TEST_P(PropertyTest, HttpParserNeverCrashesOnGarbage) {
  Rng rng(GetParam() ^ 0xF00D);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(static_cast<std::size_t>(rng.uniform_int(0, 300)), '\0');
    for (auto& c : garbage) c = static_cast<char>(rng.uniform_int(1, 255));
    (void)net::parse_request(garbage);   // must not crash or throw
    (void)net::parse_response(garbage);
  }
}

TEST_P(PropertyTest, HttpRequestRoundTripIsStable) {
  Rng rng(GetParam() ^ 0xBEEF);
  net::HttpRequest request;
  request.path = "/p" + std::to_string(rng.next_u64() % 1000);
  const int n = static_cast<int>(rng.uniform_int(0, 8));
  for (int i = 0; i < n; ++i) {
    request.headers.push_back(
        {"X-H" + std::to_string(i), std::to_string(rng.next_u64() % 100000)});
  }
  const auto parsed = net::parse_request(net::serialize(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->path, request.path);
  ASSERT_EQ(parsed->headers.size(), request.headers.size());
  for (std::size_t i = 0; i < request.headers.size(); ++i) {
    EXPECT_EQ(parsed->headers[i].value, request.headers[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(101ull, 202ull, 303ull, 404ull, 505ull, 606ull,
                                           707ull, 808ull));

}  // namespace
}  // namespace aw4a
