#include "dataset/corpus.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "dataset/httparchive.h"
#include "util/stats.h"

namespace aw4a::dataset {
namespace {

using web::ObjectType;

// Images drawn from a generator's shared pool are the ones whose raster
// object recurs: every other image gets a SourceImage of its own.
std::set<const imaging::SourceImage*> recurring_images(const std::vector<web::WebPage>& pages) {
  std::map<const imaging::SourceImage*, int> uses;
  for (const auto& page : pages) {
    for (const auto& o : page.objects) {
      if (o.type == ObjectType::kImage && o.image != nullptr) ++uses[o.image.get()];
    }
  }
  std::set<const imaging::SourceImage*> out;
  for (const auto& [image, n] : uses) {
    if (n > 1) out.insert(image);
  }
  return out;
}

TEST(Corpus, CountryMeanPinnedToTable) {
  CorpusGenerator gen;
  const Country* pk = find_country("Pakistan");
  ASSERT_NE(pk, nullptr);
  const auto pages = gen.country_pages(*pk, 80);
  ASSERT_EQ(pages.size(), 80u);
  double total = 0;
  for (const auto& p : pages) total += to_mb(p.transfer_size());
  EXPECT_NEAR(total / 80.0, pk->mean_page_mb, 0.05);
}

TEST(Corpus, GlobalMeanMatchesConstant) {
  CorpusGenerator gen;
  const auto pages = gen.global_pages(100);
  double total = 0;
  for (const auto& p : pages) total += to_mb(p.transfer_size());
  EXPECT_NEAR(total / 100.0, kGlobalMeanPageMb, 0.05);
}

TEST(Corpus, DeterministicAcrossGenerators) {
  CorpusGenerator a(CorpusOptions{.seed = 11});
  CorpusGenerator b(CorpusOptions{.seed = 11});
  const Country* india = find_country("India");
  const auto pa = a.country_pages(*india, 5);
  const auto pb = b.country_pages(*india, 5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(pa[i].transfer_size(), pb[i].transfer_size());
    EXPECT_EQ(pa[i].objects.size(), pb[i].objects.size());
  }
}

TEST(Corpus, ProfileSharesSumToOne) {
  CorpusGenerator gen;
  for (const Country& c : countries()) {
    const CompositionProfile p = gen.country_profile(c);
    double total = 0;
    for (double s : p.share) {
      EXPECT_GE(s, 0.0);
      total += s;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << c.name;
  }
}

TEST(Corpus, ProfilesRespectWhatIfBands) {
  // Images+JS must sit in the band that produces the paper's 3.1-8.8x
  // removal ratios (68-89% of bytes).
  CorpusGenerator gen;
  for (const Country& c : countries()) {
    CompositionProfile p = gen.country_profile(c);
    const double imgjs = p.of(ObjectType::kImage) + p.of(ObjectType::kJs);
    EXPECT_GE(imgjs, 0.60) << c.name;
    EXPECT_LE(imgjs, 0.90) << c.name;
  }
}

TEST(Corpus, PageCompositionTracksProfile) {
  CorpusGenerator gen;
  const Country* kenya = find_country("Kenya");
  ASSERT_NE(kenya, nullptr);
  CompositionProfile profile = gen.country_profile(*kenya);
  const auto pages = gen.country_pages(*kenya, 60);
  double img = 0;
  double js = 0;
  double total = 0;
  for (const auto& p : pages) {
    img += static_cast<double>(p.transfer_size(ObjectType::kImage));
    js += static_cast<double>(p.transfer_size(ObjectType::kJs));
    total += static_cast<double>(p.transfer_size());
  }
  EXPECT_NEAR(img / total, profile.of(ObjectType::kImage), 0.08);
  EXPECT_NEAR(js / total, profile.of(ObjectType::kJs), 0.08);
}

TEST(Corpus, EveryPageHasOneHtmlDocument) {
  CorpusGenerator gen;
  const auto pages = gen.global_pages(20);
  for (const auto& p : pages) {
    EXPECT_EQ(p.count(ObjectType::kHtml), 1u);
    EXPECT_GE(p.count(ObjectType::kImage), 1u);
    EXPECT_GE(p.count(ObjectType::kJs), 2u);
    EXPECT_FALSE(p.layout.empty());
    EXPECT_GT(p.page_height, 0);
  }
}

TEST(Corpus, InventoryModeAttachesNoPayloads) {
  CorpusGenerator gen(CorpusOptions{.rich = false});
  const auto pages = gen.global_pages(5);
  for (const auto& p : pages) {
    for (const auto& o : p.objects) {
      EXPECT_EQ(o.image, nullptr);
      EXPECT_EQ(o.script, nullptr);
    }
  }
}

TEST(Corpus, RichModeAttachesPayloads) {
  CorpusGenerator gen(CorpusOptions{.rich = true});
  const auto pages = gen.global_pages(3);
  for (const auto& p : pages) {
    for (const auto& o : p.objects) {
      if (o.type == ObjectType::kImage) {
        ASSERT_NE(o.image, nullptr);
        EXPECT_EQ(o.image->wire_bytes, o.transfer_bytes);
      }
      if (o.type == ObjectType::kJs) {
        ASSERT_NE(o.script, nullptr);
        EXPECT_EQ(o.script->total_bytes(), o.raw_bytes);
      }
    }
  }
}

TEST(Corpus, CachingReductionNearPaper) {
  // Paper §2.2: caching cuts the average global page from 2.47 to 1.02 MB
  // (58.7% reduction). Our type-aware Cache-Control mix should land nearby.
  CorpusGenerator gen;
  const auto pages = gen.global_pages(120);
  double cold = 0;
  double cached = 0;
  for (const auto& p : pages) {
    cold += static_cast<double>(p.transfer_size());
    cached += p.cached_transfer_size();
  }
  const double reduction = 1.0 - cached / cold;
  EXPECT_GT(reduction, 0.50);
  EXPECT_LT(reduction, 0.70);
}

TEST(Corpus, UserStudySitesNamedAndDistinct) {
  CorpusGenerator gen;
  const auto pages = gen.user_study_pages();
  ASSERT_EQ(pages.size(), 10u);
  EXPECT_EQ(pages[8].url, "wikipedia.org");
  // Wikipedia is far lighter and less image-heavy than youtube (Fig. 4b's
  // graceful-vs-fragile contrast).
  const auto* wiki = &pages[8];
  const auto* yt = &pages[7];
  EXPECT_EQ(yt->url, "youtube.com");
  EXPECT_LT(wiki->transfer_size(), yt->transfer_size() / 2);
  const double wiki_img = static_cast<double>(wiki->transfer_size(ObjectType::kImage)) /
                          static_cast<double>(wiki->transfer_size());
  const double yt_img = static_cast<double>(yt->transfer_size(ObjectType::kImage)) /
                        static_cast<double>(yt->transfer_size());
  EXPECT_LT(wiki_img, yt_img);
}

TEST(Corpus, SharedAssetPoolOffByDefaultAndAtRateZero) {
  // rate == 0 must be byte-identical to a corpus generated before the knob
  // existed: no pool, no extra RNG draws, same objects.
  CorpusGenerator off(CorpusOptions{.seed = 77, .rich = true});
  CorpusGenerator zero(CorpusOptions{
      .seed = 77, .rich = true, .cross_site_duplication_rate = 0.0});
  Rng ra(5);
  Rng rb(5);
  std::vector<web::WebPage> off_pages;
  std::vector<web::WebPage> zero_pages;
  for (int i = 0; i < 8; ++i) {
    off_pages.push_back(off.make_page(ra, 400 * kKB, off.global_profile()));
    zero_pages.push_back(zero.make_page(rb, 400 * kKB, zero.global_profile()));
  }
  EXPECT_TRUE(recurring_images(off_pages).empty());
  EXPECT_TRUE(recurring_images(zero_pages).empty());
  const auto& pa = off_pages.front();
  const auto& pb = zero_pages.front();
  ASSERT_EQ(pa.objects.size(), pb.objects.size());
  for (std::size_t i = 0; i < pa.objects.size(); ++i) {
    EXPECT_EQ(pa.objects[i].transfer_bytes, pb.objects[i].transfer_bytes);
    EXPECT_EQ(pa.objects[i].type, pb.objects[i].type);
  }
}

TEST(Corpus, CrossSiteDuplicationRateIsRealized) {
  const double rate = 0.3;
  CorpusGenerator gen(CorpusOptions{
      .seed = 78, .rich = true, .cross_site_duplication_rate = rate});

  // Over many pages ("sites"), the fraction of rich images drawn from the
  // shared pool must track the configured rate.
  Rng rng(9);
  std::vector<web::WebPage> pages;
  for (int p = 0; p < 40; ++p) {
    pages.push_back(gen.make_page(rng, 400 * kKB, gen.global_profile()));
  }
  const std::set<const imaging::SourceImage*> pooled = recurring_images(pages);
  ASSERT_FALSE(pooled.empty());
  int images = 0;
  int shared = 0;
  for (const auto& page : pages) {
    for (const auto& o : page.objects) {
      if (o.type != ObjectType::kImage) continue;
      ASSERT_NE(o.image, nullptr);
      ++images;
      if (pooled.count(o.image.get()) != 0) {
        ++shared;
        // Shared objects inherit the pooled asset's real wire size, so
        // page byte accounting matches the raster being served.
        EXPECT_EQ(o.transfer_bytes, o.image->wire_bytes);
      }
    }
  }
  ASSERT_GT(images, 100);
  const double realized = static_cast<double>(shared) / images;
  EXPECT_NEAR(realized, rate, 0.08) << shared << "/" << images;
  // The pool is small by design: shared assets recur across pages, which is
  // the cross-site duplication the asset store exists to collapse.
  EXPECT_GT(static_cast<int>(pooled.size()), 1);
  EXPECT_GT(shared, static_cast<int>(pooled.size()));
}

TEST(Corpus, SharedAssetsAreTheIdenticalObjectAcrossPages) {
  CorpusGenerator gen(CorpusOptions{
      .seed = 79, .rich = true, .cross_site_duplication_rate = 0.5});
  Rng rng(3);
  std::vector<web::WebPage> pages;
  for (int i = 0; i < 6; ++i) {
    pages.push_back(gen.make_page(rng, 600 * kKB, gen.global_profile()));
  }
  // At 50% duplication this many pages share pooled rasters *by pointer* —
  // content-identity across sites, not just equal bytes. That pointer
  // sharing is what the serving asset store's exact fingerprint collapses.
  bool found = false;
  for (std::size_t a = 0; a < pages.size() && !found; ++a) {
    for (std::size_t b = a + 1; b < pages.size() && !found; ++b) {
      for (const auto& oa : pages[a].objects) {
        if (oa.type != ObjectType::kImage) continue;
        for (const auto& ob : pages[b].objects) {
          if (ob.type == ObjectType::kImage && oa.image == ob.image) found = true;
        }
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(Corpus, HttpArchiveAnchors) {
  // The Fig. 1 model must pass near the paper's quoted anchors: 145 KB
  // (2011), 1569 KB (Jan 2018), 2007 KB (Jan 2023), a 13.8x decade growth.
  EXPECT_NEAR(mobile_median_kb(2011.0), 145.0, 40.0);
  EXPECT_NEAR(mobile_median_kb(2018.0), 1569.0, 160.0);
  EXPECT_NEAR(mobile_median_kb(2023.0), 2007.0, 120.0);
  // Desktop heavier than mobile early on; both series monotone.
  const auto series = mobile_page_weight_series();
  EXPECT_GT(desktop_page_weight_series().front().median_kb, series.front().median_kb);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].median_kb, series[i - 1].median_kb);
    EXPECT_LT(series[i].p25_kb, series[i].median_kb);
    EXPECT_GT(series[i].p75_kb, series[i].median_kb);
  }
}

}  // namespace
}  // namespace aw4a::dataset
