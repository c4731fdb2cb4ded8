#include "web/page.h"

#include <gtest/gtest.h>

#include "dataset/corpus.h"
#include "util/rng.h"

namespace aw4a::web {
namespace {

WebPage inventory_page() {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 1, .rich = false});
  Rng rng(1);
  return gen.make_page(rng, from_mb(2.0), gen.global_profile());
}

WebPage rich_page(std::uint64_t seed = 2) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = seed, .rich = true});
  Rng rng(seed);
  return gen.make_page(rng, from_mb(1.5), gen.global_profile());
}

TEST(WebPage, TransferSizeSumsObjects) {
  const WebPage page = inventory_page();
  Bytes manual = 0;
  for (const auto& o : page.objects) manual += o.transfer_bytes;
  EXPECT_EQ(page.transfer_size(), manual);
  Bytes by_type = 0;
  for (ObjectType t : kAllObjectTypes) by_type += page.transfer_size(t);
  EXPECT_EQ(by_type, manual);
}

TEST(WebPage, RawAtLeastTransferForText) {
  const WebPage page = inventory_page();
  for (const auto& o : page.objects) {
    if (o.type == ObjectType::kJs || o.type == ObjectType::kHtml ||
        o.type == ObjectType::kCss) {
      EXPECT_GT(o.raw_bytes, o.transfer_bytes);
    }
  }
}

TEST(WebPage, FindAndCount) {
  const WebPage page = inventory_page();
  ASSERT_FALSE(page.objects.empty());
  EXPECT_EQ(page.find(page.objects[0].id), &page.objects[0]);
  EXPECT_EQ(page.find(0xFFFFFFFF), nullptr);
  EXPECT_EQ(page.count(ObjectType::kHtml), 1u);
  EXPECT_GT(page.count(ObjectType::kImage), 0u);
}

TEST(WebPage, CachedTransferSmallerThanCold) {
  const WebPage page = inventory_page();
  EXPECT_LT(page.cached_transfer_size(), static_cast<double>(page.transfer_size()));
  EXPECT_GT(page.cached_transfer_size(), 0.0);
}

TEST(ServedPage, IdentityServingMatchesOriginal) {
  const WebPage page = inventory_page();
  const ServedPage served = serve_original(page);
  EXPECT_EQ(served.transfer_size(), page.transfer_size());
  for (const auto& o : page.objects) EXPECT_EQ(served.object_transfer(o), o.transfer_bytes);
}

TEST(ServedPage, DropZeroesObject) {
  const WebPage page = inventory_page();
  ServedPage served = serve_original(page);
  const auto& victim = page.objects[2];
  served.dropped.insert(victim.id);
  EXPECT_TRUE(served.is_dropped(victim.id));
  EXPECT_EQ(served.transfer_size(), page.transfer_size() - victim.transfer_bytes);
}

TEST(ServedPage, ImageVariantChangesBytes) {
  const WebPage page = rich_page();
  ServedPage served = serve_original(page);
  const WebObject* img = nullptr;
  for (const auto& o : page.objects) {
    if (o.type == ObjectType::kImage && o.image != nullptr) {
      img = &o;
      break;
    }
  }
  ASSERT_NE(img, nullptr);
  imaging::ImageVariant v;
  v.bytes = img->transfer_bytes / 3;
  v.ssim = 0.95;
  served.images[img->id] = ServedImage{.variant = v, .dropped = false};
  EXPECT_EQ(served.object_transfer(*img), img->transfer_bytes / 3);
  EXPECT_EQ(served.transfer_size(),
            page.transfer_size() - img->transfer_bytes + img->transfer_bytes / 3);
}

TEST(ServedPage, ScriptDecisionControlsBytesAndLiveness) {
  const WebPage page = rich_page(5);
  ServedPage served = serve_original(page);
  const WebObject* script_obj = nullptr;
  for (const auto& o : page.objects) {
    if (o.type == ObjectType::kJs && o.script != nullptr) {
      script_obj = &o;
      break;
    }
  }
  ASSERT_NE(script_obj, nullptr);
  const js::FunctionId kept = script_obj->script->functions.front().id;

  // Unmodified: every function of the script is live.
  EXPECT_TRUE(served.function_live(script_obj->id, kept));

  ServedScript decision;
  decision.live = {kept};
  decision.raw_bytes = script_obj->script->functions.front().bytes;
  decision.transfer_bytes = script_obj->script_transfer_for(decision.raw_bytes);
  served.scripts[script_obj->id] = decision;
  EXPECT_TRUE(served.function_live(script_obj->id, kept));
  // Any other function is now dead.
  for (const auto& f : script_obj->script->functions) {
    if (f.id != kept) {
      EXPECT_FALSE(served.function_live(script_obj->id, f.id));
      break;
    }
  }
  EXPECT_LT(served.object_transfer(*script_obj), script_obj->transfer_bytes);
}

TEST(ServedPage, RetexturedOverridesTransfer) {
  const WebPage page = inventory_page();
  ServedPage served = serve_original(page);
  const auto& o = page.objects[1];
  served.retextured[o.id] = 123;
  EXPECT_EQ(served.object_transfer(o), 123u);
}

TEST(ServedPage, ScriptTransferProportionalToRaw) {
  const WebPage page = rich_page(7);
  for (const auto& o : page.objects) {
    if (o.type != ObjectType::kJs) continue;
    EXPECT_EQ(o.script_transfer_for(o.raw_bytes), o.transfer_bytes);
    EXPECT_NEAR(static_cast<double>(o.script_transfer_for(o.raw_bytes / 2)),
                static_cast<double>(o.transfer_bytes) / 2.0, 2.0);
    break;
  }
}

TEST(CacheItemAdapter, CopiesFields) {
  WebObject o;
  o.id = 9;
  o.transfer_bytes = 555;
  o.cache = {.max_age_seconds = 60, .no_store = false};
  const net::CacheItem item = to_cache_item(o);
  EXPECT_EQ(item.id, 9u);
  EXPECT_EQ(item.transfer_bytes, 555u);
  EXPECT_EQ(item.policy.max_age_seconds, 60u);
}

}  // namespace
}  // namespace aw4a::web
