// AssetStore contract tests: the content-addressed layer under the tier
// cache. The load-bearing properties pinned here:
//   - exact-fingerprint hits share one build and one memo (bit-identical
//     families, zero re-encodes),
//   - a near-duplicate, or the same content under another recipe, never
//     shares a memo: it gets the measurements of its own pixels,
//   - an evicted key misses and rebuilds,
//   - concurrent acquires of one content key collapse to one build with no
//     lost waiters, across *different page identities*, under the flight's
//     deadline union,
//   - LadderCache's parallel prewarm through the store yields the same
//     ladders as serial lazy enumeration,
//   - the counter partition lookups == exact_hits + misses holds in every
//     schedule (the TSan leg runs this whole binary).
#include "serving/asset_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/objective.h"
#include "imaging/variants.h"
#include "obs/context.h"
#include "util/rng.h"
#include "web/page.h"

namespace aw4a::serving {
namespace {

using imaging::ImageClass;
using imaging::SourceImage;

std::shared_ptr<const SourceImage> make_asset(std::uint64_t seed, Bytes wire = 60 * kKB) {
  Rng rng(seed);
  return std::make_shared<const SourceImage>(
      imaging::make_source_image(rng, ImageClass::kPhoto, wire));
}

/// The same content as `base` seen from another page: different object id
/// and display geometry, identical raster and encode metadata.
std::shared_ptr<const SourceImage> same_content_other_page(
    const std::shared_ptr<const SourceImage>& base) {
  SourceImage copy = *base;
  copy.id = base->id + 7777;
  copy.display_w = base->display_w + 40;
  copy.display_h = base->display_h + 10;
  return std::make_shared<const SourceImage>(std::move(copy));
}

/// A near-duplicate: one low bit of one channel of one pixel differs, so the
/// content (and its exact fingerprint) differs while it looks the same.
std::shared_ptr<const SourceImage> near_duplicate(
    const std::shared_ptr<const SourceImage>& base, int x = 0, int y = 0) {
  SourceImage copy = *base;
  copy.original.at(x, y).r ^= 1;
  return std::make_shared<const SourceImage>(std::move(copy));
}

/// A sparse perturbation: +3 green on every 8th pixel of every 8th row.
std::shared_ptr<const SourceImage> sparse_green_shift(
    const std::shared_ptr<const SourceImage>& base) {
  SourceImage copy = *base;
  for (int y = 0; y < copy.original.height(); y += 8) {
    for (int x = 0; x < copy.original.width(); x += 8) {
      std::uint8_t& g = copy.original.at(x, y).g;
      g = static_cast<std::uint8_t>(std::min(255, g + 3));
    }
  }
  return std::make_shared<const SourceImage>(std::move(copy));
}

void expect_partition(const AssetStoreStats& s) {
  EXPECT_EQ(s.lookups, s.exact_hits + s.misses)
      << "every acquire must land in exactly one outcome counter";
}

void expect_same_family(const std::optional<std::vector<imaging::ImageVariant>>& got,
                        const std::optional<std::vector<imaging::ImageVariant>>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  ASSERT_EQ(got->size(), want->size());
  for (std::size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].bytes, (*want)[i].bytes);
    EXPECT_DOUBLE_EQ((*got)[i].ssim, (*want)[i].ssim);
  }
}

/// Every memoized family bit for bit: same slots set, same bytes and SSIM.
void expect_same_memo(const imaging::VariantMemo& got, const imaging::VariantMemo& want) {
  ASSERT_EQ(got.webp_full.has_value(), want.webp_full.has_value());
  if (got.webp_full) {
    EXPECT_EQ(got.webp_full->bytes, want.webp_full->bytes);
    EXPECT_DOUBLE_EQ(got.webp_full->ssim, want.webp_full->ssim);
  }
  for (std::size_t f = 0; f < 3; ++f) {
    expect_same_family(got.res_family[f], want.res_family[f]);
    expect_same_family(got.qual_family[f], want.qual_family[f]);
  }
}

TEST(AssetStore, ExactHitSharesOneBuildAndOneMemo) {
  AssetStore store;
  const auto asset = make_asset(1);
  const imaging::LadderOptions options;

  const auto before = imaging::build_work_stats().encodes;
  const auto first = store.acquire(asset, options, obs::RequestContext::none());
  ASSERT_NE(first, nullptr);
  const auto built = imaging::build_work_stats().encodes - before;
  EXPECT_GT(built, 0u);

  // Same content from a different page identity: exact hit, no new encodes,
  // the very same memo object.
  const auto second =
      store.acquire(same_content_other_page(asset), options, obs::RequestContext::none());
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(imaging::build_work_stats().encodes - before, built);

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.exact_hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_LE(s.resident_bytes, store.capacity_bytes());
  expect_partition(s);
}

TEST(AssetStore, AcquiredMemoMatchesLocalEnumerationBitForBit) {
  AssetStore store;
  const auto asset = make_asset(2);
  const imaging::LadderOptions options;
  const auto memo = store.acquire(asset, options, obs::RequestContext::none());
  ASSERT_NE(memo, nullptr);

  imaging::VariantLadder local(asset, options);
  local.warm();
  ASSERT_TRUE(memo->webp_full.has_value());
  expect_same_memo(*memo, local.snapshot());
}

TEST(AssetStore, NearDuplicateGetsItsOwnMeasurements) {
  // Look-alikes are different content. Each must adopt exactly what its own
  // pixels measure, never a resident look-alike's memo.
  AssetStore store;
  const imaging::LadderOptions options;
  const auto asset = make_asset(3);
  const std::pair<const char*, std::shared_ptr<const SourceImage>> views[] = {
      {"original", asset},
      {"one-bit near-duplicate", near_duplicate(asset)},
      {"sparse +3 green", sparse_green_shift(asset)}};
  for (const auto& [name, view] : views) {
    SCOPED_TRACE(name);
    const auto memo = store.acquire(view, options, obs::RequestContext::none());
    ASSERT_NE(memo, nullptr);
    imaging::VariantLadder local(view, options);
    local.warm();
    expect_same_memo(*memo, local.snapshot());
  }

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.exact_hits, 0u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.inserts, 3u);
  expect_partition(s);
}

TEST(AssetStore, DistinctContentAndRecipesNeverShare) {
  AssetStore store;
  const auto asset = make_asset(5);
  const imaging::LadderOptions options;

  // Different content: both build.
  const auto a = store.acquire(asset, options, obs::RequestContext::none());
  const auto b = store.acquire(make_asset(6), options, obs::RequestContext::none());
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());

  // Same content, different enumeration recipe: a separate entry — adopting
  // across LadderOptions would hand a solver families it never asked for.
  imaging::LadderOptions coarse = options;
  coarse.min_ssim = 0.5;
  const auto c = store.acquire(asset, coarse, obs::RequestContext::none());
  ASSERT_NE(c, nullptr);
  EXPECT_NE(a.get(), c.get());

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.exact_hits, 0u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.inserts, 3u);
  expect_partition(s);
}

TEST(AssetStore, FailedBuildReturnsNullAndCountsTheFailure) {
  AssetStore store;
  std::atomic<double> now{0.0};
  const obs::RequestContext ctx =
      obs::RequestContext()
          .with_clock([&now] { return now.load(); })
          .with_deadline_after(0.4);
  now.store(1.0);  // the budget is gone before the warming build starts

  const auto memo = store.acquire(make_asset(7), imaging::LadderOptions{}, ctx);
  EXPECT_EQ(memo, nullptr) << "containment: an exhausted deadline degrades to a local build";
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.build_failures, 1u);
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.misses, 1u);
  expect_partition(s);
}

TEST(AssetStore, EvictedKeyMissesAndRebuilds) {
  // One shard with room for one resident memo: every insert evicts the
  // previous entry. The budget is measured from the two real entries, so the
  // test holds for any raster size: each fits alone, the two never together.
  const imaging::LadderOptions options;
  const auto a = make_asset(8);
  const auto b = make_asset(9);
  Bytes cost_a = 0;
  Bytes cost_b = 0;
  {
    AssetStoreOptions sizing;
    sizing.shards = 1;
    AssetStore sizer(sizing);
    (void)sizer.acquire(a, options, obs::RequestContext::none());
    cost_a = sizer.stats().resident_bytes;
    (void)sizer.acquire(b, options, obs::RequestContext::none());
    cost_b = sizer.stats().resident_bytes - cost_a;
    ASSERT_GT(cost_a, 0u);
    ASSERT_GT(cost_b, 0u);
  }
  AssetStoreOptions opts;
  opts.capacity_bytes = std::max(cost_a, cost_b) + std::min(cost_a, cost_b) / 2;
  opts.shards = 1;
  AssetStore store(opts);
  ASSERT_EQ(store.shard_count(), 1u);

  const auto first = store.acquire(a, options, obs::RequestContext::none());
  ASSERT_NE(first, nullptr);
  ASSERT_NE(store.acquire(b, options, obs::RequestContext::none()), nullptr);  // evicts a
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().resident_entries, 1u);

  // The evicted key misses and rebuilds (evicting b); the rebuild measures
  // what the first build measured.
  const auto rebuilt = store.acquire(a, options, obs::RequestContext::none());
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), first.get()) << "an evicted key must not be served from the store";
  expect_same_memo(*rebuilt, *first);

  // The rebuilt entry is resident again: the same content hits it.
  const auto hit =
      store.acquire(same_content_other_page(a), options, obs::RequestContext::none());
  EXPECT_EQ(hit.get(), rebuilt.get());

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, 4u);
  EXPECT_EQ(s.exact_hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.inserts, 3u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_EQ(s.resident_bytes, cost_a);
  EXPECT_LE(s.resident_bytes, store.capacity_bytes());
  expect_partition(s);
}

TEST(AssetStore, OversizedEntriesAreNeverAdmitted) {
  AssetStoreOptions opts;
  opts.capacity_bytes = 1;  // smaller than any entry
  opts.shards = 1;
  AssetStore store(opts);
  const auto memo = store.acquire(make_asset(10), imaging::LadderOptions{},
                                  obs::RequestContext::none());
  ASSERT_NE(memo, nullptr) << "the caller still gets the flight's memo";
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.inserts, 0u);
  EXPECT_EQ(s.resident_entries, 0u);
  EXPECT_EQ(s.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency (the TSan leg runs these under -DAW4A_SANITIZE=thread)
// ---------------------------------------------------------------------------

TEST(AssetStore, ConcurrentAcquiresOfOneContentKeyCollapse) {
  AssetStore store;
  const auto asset = make_asset(11);
  const imaging::LadderOptions options;
  constexpr std::size_t kThreads = 8;

  std::vector<AssetStore::MemoPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread presents the asset under its own page identity; the
      // content key is what collapses them.
      results[t] = store.acquire(same_content_other_page(asset), options,
                                 obs::RequestContext::none());
    });
  }
  for (std::thread& t : threads) t.join();

  // No lost waiters: every acquire returned the one shared memo.
  ASSERT_NE(results[0], nullptr);
  for (const auto& memo : results) {
    ASSERT_NE(memo, nullptr);
    EXPECT_EQ(memo.get(), results[0].get());
  }
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, kThreads);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.build_failures, 0u);
  expect_partition(s);
  EXPECT_EQ(store.flight_stats().leads + store.flight_stats().joins, s.misses);
}

TEST(AssetStore, FlightDeadlineUnionSpansPageIdentities) {
  // Deterministic orchestration on an injected clock:
  //   1. the leader enters the warming build with a 0.4 s budget and blocks
  //      inside its first in-build clock read;
  //   2. a second page's request for the SAME content joins the flight with
  //      a 100 s budget (its CAS-max lands before it waits: the joiner
  //      counts its join, CAS-maxes and begins waiting under one registry
  //      lock hold, and flight_stats() reads under that lock, so observing
  //      joins==1 proves the union moved);
  //   3. time jumps PAST the leader's own deadline, the leader resumes —
  //      it survives only because the build runs under the union.
  AssetStore store;
  const auto asset = make_asset(12);
  const imaging::LadderOptions options;

  std::atomic<bool> release{false};
  std::atomic<int> leader_clock_calls{0};
  // Call 0 anchors the leader's own deadline at 0.4. Call 1 is the first
  // in-build deadline check: it blocks until the joiner has joined, then
  // still reports t=0 — remaining() loads the deadline union BEFORE the
  // clock, so this call's union read may predate the join and must be
  // paired with a pre-join time. Calls >= 2 re-read the union (now raised
  // to 100) and report t=0.5, past the leader's own deadline: the leader
  // survives them only if the build really runs under the shared union.
  const auto leader_clock = [&]() -> double {
    const int call = leader_clock_calls.fetch_add(1);
    if (call == 0) return 0.0;
    while (!release.load()) std::this_thread::yield();
    return call == 1 ? 0.0 : 0.5;
  };

  AssetStore::MemoPtr leader_memo;
  std::thread leader([&] {
    const obs::RequestContext ctx =
        obs::RequestContext().with_clock(leader_clock).with_deadline_after(0.4);
    leader_memo = store.acquire(asset, options, ctx);
  });
  while (leader_clock_calls.load() < 2) std::this_thread::yield();

  AssetStore::MemoPtr joiner_memo;
  std::thread joiner([&] {
    const obs::RequestContext ctx = obs::RequestContext()
                                        .with_clock([] { return 0.0; })
                                        .with_deadline_after(100.0);
    joiner_memo = store.acquire(same_content_other_page(asset), options, ctx);
  });
  while (store.flight_stats().joins < 1) std::this_thread::yield();

  release.store(true);
  leader.join();
  joiner.join();

  ASSERT_NE(leader_memo, nullptr)
      << "the leader must build under the union of every waiter's deadline";
  ASSERT_NE(joiner_memo, nullptr);
  EXPECT_EQ(leader_memo.get(), joiner_memo.get());
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.build_failures, 0u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(store.flight_stats().leads, 1u);
  EXPECT_EQ(store.flight_stats().joins, 1u);
  expect_partition(s);
}

TEST(AssetStore, ParallelPrewarmMatchesASerialLazyCache) {
  // LadderCache::prewarm on 4 threads probes the store from every worker at
  // once; a page that repeats one asset makes two of them race on one
  // content key. Every ladder must still equal a serial, store-less cache's.
  web::WebPage page;
  const auto repeated = make_asset(15, 40 * kKB);
  const std::shared_ptr<const SourceImage> assets[] = {
      repeated, make_asset(16, 40 * kKB), same_content_other_page(repeated),
      make_asset(17, 40 * kKB)};
  for (const auto& asset : assets) {
    web::WebObject object;
    object.id = page.objects.size() + 1;
    object.type = web::ObjectType::kImage;
    object.image = asset;
    page.objects.push_back(object);
  }
  const imaging::LadderOptions options;

  AssetStore store;
  core::LadderCache prewarmed(options, &store);
  prewarmed.prewarm(page, 4);
  core::LadderCache serial(options);
  for (const web::WebObject& object : page.objects) {
    serial.ladder_for(object).warm();
    SCOPED_TRACE("object " + std::to_string(object.id));
    expect_same_memo(prewarmed.ladder_for(object).snapshot(),
                     serial.ladder_for(object).snapshot());
  }

  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, page.objects.size());
  EXPECT_EQ(s.build_failures, 0u);
  expect_partition(s);
}

TEST(AssetStore, StressPartitionHoldsUnderConcurrentChurn) {
  AssetStore store;
  const imaging::LadderOptions options;
  const auto base_a = make_asset(13, 40 * kKB);
  const auto base_b = make_asset(14, 40 * kKB);
  // Per-thread views: exact copies under other page identities plus near
  // duplicates (distinct content), so exact hits and misses both occur.
  constexpr std::size_t kThreads = 6;
  constexpr int kIterations = 4;

  std::atomic<std::uint64_t> returned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& base = (t + i) % 2 == 0 ? base_a : base_b;
        const auto view = i % 2 == 0 ? same_content_other_page(base)
                                     : near_duplicate(base, static_cast<int>(t % 3), i % 2);
        if (store.acquire(view, options, obs::RequestContext::none()) != nullptr) {
          returned.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(returned.load(), kThreads * kIterations) << "no lost waiters, no failures";
  const AssetStoreStats s = store.stats();
  EXPECT_EQ(s.lookups, kThreads * kIterations);
  EXPECT_EQ(s.build_failures, 0u);
  // Each thread's last two iterations revisit content it already touched, so
  // at most the first two per thread may miss (plus flight-racing misses of
  // the same key, which the partition still accounts for).
  EXPECT_LE(s.misses, 2u * kThreads);
  EXPECT_GE(s.exact_hits, 1u);
  expect_partition(s);
  EXPECT_EQ(store.flight_stats().leads + store.flight_stats().joins, s.misses);
}

}  // namespace
}  // namespace aw4a::serving
