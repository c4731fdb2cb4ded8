#include "net/cache.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace aw4a::net {
namespace {

TEST(VisitSchedule, PaperDefaults) {
  const VisitSchedule s{};
  EXPECT_EQ(s.visit_count(), 29u);  // t=0 plus 28 half-day visits over 2 weeks
  EXPECT_EQ(s.visit_time(0), 0u);
  EXPECT_EQ(s.visit_time(2), 24u * 3600u);
}

TEST(InfiniteCache, NoStoreFetchesEveryVisit) {
  const std::vector<CacheItem> page{
      {.id = 1, .transfer_bytes = 1000, .policy = {.max_age_seconds = 0, .no_store = true}}};
  const auto r = simulate_infinite_cache(page, VisitSchedule{});
  EXPECT_EQ(r.first_visit_bytes, 1000u);
  EXPECT_EQ(r.total_bytes, 29u * 1000u);
  EXPECT_DOUBLE_EQ(r.avg_bytes_per_visit, 1000.0);
}

TEST(InfiniteCache, ImmortalObjectFetchedOnce) {
  const std::vector<CacheItem> page{
      {.id = 1,
       .transfer_bytes = 5000,
       .policy = {.max_age_seconds = 52 * CachePolicy::kWeek, .no_store = false}}};
  const auto r = simulate_infinite_cache(page, VisitSchedule{});
  EXPECT_EQ(r.total_bytes, 5000u);
  EXPECT_NEAR(r.avg_bytes_per_visit, 5000.0 / 29.0, 1e-9);
}

TEST(InfiniteCache, DailyMaxAgeRefetchPeriod) {
  const std::vector<CacheItem> page{
      {.id = 1,
       .transfer_bytes = 100,
       .policy = {.max_age_seconds = CachePolicy::kDay, .no_store = false}}};
  const auto r = simulate_infinite_cache(page, VisitSchedule{});
  // Fetch at t=0; the object is stale only *strictly after* 24h, so the
  // refetch lands on the 36h visit: period 36h => fetches at 0,36,...,324h
  // = 10 fetches across the 29 visits.
  EXPECT_EQ(r.total_bytes, 1000u);
}

TEST(InfiniteCache, TwoWeekMaxAgeSurvivesTheWholeSchedule) {
  const std::vector<CacheItem> page{
      {.id = 1,
       .transfer_bytes = 100,
       .policy = {.max_age_seconds = 2 * CachePolicy::kWeek, .no_store = false}}};
  const auto r = simulate_infinite_cache(page, VisitSchedule{});
  // The last visit is exactly at the max-age boundary (not stale).
  EXPECT_EQ(r.total_bytes, 100u);
}

TEST(SampledPolicyMix, MedianMaxAgeNearTwoWeeks) {
  Rng rng(1);
  std::vector<std::uint64_t> ages;
  for (int i = 0; i < 4000; ++i) {
    const CachePolicy p = sample_cache_policy(rng);
    ages.push_back(p.no_store ? 0 : p.max_age_seconds);
  }
  std::sort(ages.begin(), ages.end());
  const std::uint64_t median = ages[ages.size() / 2];
  // Paper footnote 10: median object max-age ~2 weeks.
  EXPECT_GE(median, CachePolicy::kWeek);
  EXPECT_LE(median, 3 * CachePolicy::kWeek);
}

TEST(LruByteCache, HitMissAndStale) {
  LruByteCache cache(10000);
  const CacheItem item{
      .id = 1,
      .transfer_bytes = 4000,
      .policy = {.max_age_seconds = CachePolicy::kDay, .no_store = false}};
  EXPECT_EQ(cache.fetch(item, 0), 4000u);            // cold miss
  EXPECT_EQ(cache.fetch(item, 3600), 0u);            // fresh hit
  EXPECT_EQ(cache.fetch(item, 2 * 86400), 4000u);    // stale refetch
  // The refetch replaced the entry rather than adding a copy: 6000 more
  // bytes still fit beside it without evicting it.
  const CacheItem other{.id = 2, .transfer_bytes = 6000, .policy = item.policy};
  EXPECT_EQ(cache.fetch(other, 2 * 86400), 6000u);
  EXPECT_EQ(cache.fetch(item, 2 * 86400 + 1), 0u);
}

TEST(LruByteCache, EvictsLeastRecentlyUsed) {
  LruByteCache cache(10000);
  const CachePolicy immortal{.max_age_seconds = 52 * CachePolicy::kWeek, .no_store = false};
  const CacheItem a{.id = 1, .transfer_bytes = 4000, .policy = immortal};
  const CacheItem b{.id = 2, .transfer_bytes = 4000, .policy = immortal};
  const CacheItem c{.id = 3, .transfer_bytes = 4000, .policy = immortal};
  cache.fetch(a, 0);
  cache.fetch(b, 1);
  cache.fetch(a, 2);           // a now more recent than b
  cache.fetch(c, 3);           // evicts b
  EXPECT_EQ(cache.fetch(a, 4), 0u);
  EXPECT_EQ(cache.fetch(c, 5), 0u);
  EXPECT_EQ(cache.fetch(b, 6), 4000u);  // b was evicted
}

TEST(LruByteCache, OversizedObjectNeverAdmitted) {
  LruByteCache cache(1000);
  const CacheItem big{.id = 1,
                      .transfer_bytes = 5000,
                      .policy = {.max_age_seconds = CachePolicy::kDay, .no_store = false}};
  EXPECT_EQ(cache.fetch(big, 0), 5000u);
  EXPECT_EQ(cache.fetch(big, 1), 5000u);  // still a miss: never admitted
}

TEST(LruByteCache, SharedCoreKeepsSimulationByteIdentical) {
  // Regression pin for the O(n)-scan -> util/lru.h rewrite: an adversarial
  // mix of hits, stale refetches, no-store items, evictions and clears must
  // reproduce the exact pre-rewrite transfer sequence.
  LruByteCache cache(10000);
  Rng rng(7);
  std::uint64_t checksum = 0;
  for (int i = 0; i < 5000; ++i) {
    CacheItem item;
    item.id = static_cast<std::uint64_t>(rng.uniform_int(1, 12));
    item.transfer_bytes = static_cast<Bytes>(500 + 250 * item.id);
    item.policy = {.max_age_seconds = (item.id % 3 == 0) ? 0u : 3600u * item.id,
                   .no_store = item.id % 5 == 0};
    const std::uint64_t now = static_cast<std::uint64_t>(i) * 700;
    checksum = checksum * 1099511628211ULL + cache.fetch(item, now);
    if (i % 977 == 0) cache.clear();
  }
  EXPECT_EQ(checksum, 15391330069952582146ULL);
  // Resident bytes at the end, read back through fetch(): a probe larger
  // than the cache is never admitted, so probing changes no residency, and
  // a long-lived probe hits (costs 0) exactly when its id is resident.
  Bytes resident = 0;
  for (std::uint64_t id = 1; id <= 12; ++id) {
    const CacheItem probe{.id = id,
                          .transfer_bytes = 10001,
                          .policy = {.max_age_seconds = 52 * CachePolicy::kWeek,
                                     .no_store = false}};
    if (cache.fetch(probe, 5000 * 700) == 0) resident += static_cast<Bytes>(500 + 250 * id);
  }
  EXPECT_EQ(resident, 8500u);
}

TEST(DeviceCache, BiggerDeviceSavesMore) {
  Rng rng(2);
  // 25 synthetic pages of ~40 x 60KB objects with the sampled policy mix.
  std::vector<std::vector<CacheItem>> pages;
  std::uint64_t id = 0;
  for (int p = 0; p < 25; ++p) {
    std::vector<CacheItem> page;
    for (int o = 0; o < 40; ++o) {
      page.push_back(CacheItem{.id = ++id,
                               .transfer_bytes = static_cast<Bytes>(rng.uniform(20e3, 120e3)),
                               .policy = sample_cache_policy(rng)});
    }
    pages.push_back(std::move(page));
  }
  const double nexus = simulate_device_cache(pages, VisitSchedule{}, nexus5());
  const double nokia = simulate_device_cache(pages, VisitSchedule{}, nokia1());
  EXPECT_GT(nexus, nokia);
  // Paper: Nexus 5 -60.9%, Nokia 1 -21.4%; generous bands for the synthetic mix.
  EXPECT_GT(nexus, 0.45);
  EXPECT_LT(nexus, 0.75);
  EXPECT_GT(nokia, 0.08);
  EXPECT_LT(nokia, 0.40);
  // Exact pins (captured before the util/lru.h rewrite): the refactor must
  // keep the simulation byte-identical, not merely in-band.
  EXPECT_DOUBLE_EQ(nexus, 0.66588748463276248);
  EXPECT_DOUBLE_EQ(nokia, 0.18808137021032711);
}

}  // namespace
}  // namespace aw4a::net
