// The multi-site serving subsystem: TierCache policy (LRU bytes,
// admission, stale marking), config fingerprinting, SingleFlight semantics,
// and OriginServer routing / lazy builds / metrics / the stats endpoint.
// Concurrency hammering lives in serving_stress_test.cc; this file pins the
// single-threaded contracts.
#include "serving/origin.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <latch>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/corpus.h"
#include "serving/metrics.h"
#include "serving/single_flight.h"
#include "serving/tier_cache.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/rng.h"

namespace aw4a::serving {
namespace {

LadderPtr fake_ladder(Bytes cost_bytes) {
  auto ladder = std::make_shared<TierLadder>();
  ladder->tiers.resize(1);
  ladder->cost_bytes = cost_bytes;
  return ladder;
}

TierKey key_of(std::uint64_t site, std::uint64_t fingerprint = 1,
               net::PlanType plan = net::PlanType::kDataOnly) {
  return TierKey{site, fingerprint, plan};
}

// ---------------------------------------------------------------------------
// TierCache
// ---------------------------------------------------------------------------

TEST(TierCache, MissInsertHitRoundTrip) {
  TierCache cache(TierCacheOptions{.capacity_bytes = kMB, .shards = 2});
  EXPECT_EQ(cache.fetch(key_of(1)), nullptr);
  const LadderPtr ladder = fake_ladder(100);
  EXPECT_TRUE(cache.insert(key_of(1), ladder));
  EXPECT_EQ(cache.fetch(key_of(1)).get(), ladder.get());
  const TierCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
  EXPECT_EQ(stats.resident_bytes, 100u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(TierCache, KeysSeparateSitesConfigsAndPlans) {
  TierCache cache(TierCacheOptions{.capacity_bytes = kMB, .shards = 1});
  ASSERT_TRUE(cache.insert(key_of(1, 10, net::PlanType::kDataOnly), fake_ladder(1)));
  EXPECT_EQ(cache.fetch(key_of(2, 10, net::PlanType::kDataOnly)), nullptr);
  EXPECT_EQ(cache.fetch(key_of(1, 11, net::PlanType::kDataOnly)), nullptr);
  EXPECT_EQ(cache.fetch(key_of(1, 10, net::PlanType::kDataVoiceHighUsage)), nullptr);
  EXPECT_NE(cache.fetch(key_of(1, 10, net::PlanType::kDataOnly)), nullptr);
}

TEST(TierCache, EvictsLeastRecentlyUsedByBytes) {
  // One shard so the byte budget is a single pool.
  TierCache cache(TierCacheOptions{.capacity_bytes = 1000, .shards = 1});
  ASSERT_TRUE(cache.insert(key_of(1), fake_ladder(600)));
  ASSERT_TRUE(cache.insert(key_of(2), fake_ladder(300)));
  ASSERT_NE(cache.fetch(key_of(1)), nullptr);  // 1 is now most recent
  ASSERT_TRUE(cache.insert(key_of(3), fake_ladder(300)));
  EXPECT_EQ(cache.fetch(key_of(2)), nullptr) << "LRU entry should be gone";
  EXPECT_NE(cache.fetch(key_of(1)), nullptr);
  EXPECT_NE(cache.fetch(key_of(3)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().resident_bytes, 1000u);
}

TEST(TierCache, MarkStaleServesUntilReplaced) {
  TierCache cache(TierCacheOptions{.capacity_bytes = kMB, .shards = 2});
  const LadderPtr old_ladder = fake_ladder(10);
  ASSERT_TRUE(cache.insert(key_of(1), old_ladder));
  ASSERT_TRUE(cache.insert(key_of(2, /*fingerprint=*/9), fake_ladder(10)));
  EXPECT_EQ(cache.mark_stale_site(1), 1u) << "only site 1's entries are flagged";
  EXPECT_EQ(cache.mark_stale_site(1), 0u) << "already stale: no re-flagging";

  bool stale = false;
  EXPECT_EQ(cache.fetch(key_of(1), obs::RequestContext::none(), &stale).get(),
            old_ladder.get())
      << "a stale entry still serves";
  EXPECT_TRUE(stale);
  EXPECT_NE(cache.fetch(key_of(2, 9), obs::RequestContext::none(), &stale), nullptr);
  EXPECT_FALSE(stale) << "other sites' entries are untouched";
  const TierCacheStats mid = cache.stats();
  EXPECT_EQ(mid.stale_marks, 1u);
  EXPECT_EQ(mid.stale_hits, 1u);

  const LadderPtr fresh = fake_ladder(20);
  EXPECT_TRUE(cache.replace(key_of(1), fresh));
  stale = true;
  EXPECT_EQ(cache.fetch(key_of(1), obs::RequestContext::none(), &stale).get(), fresh.get());
  EXPECT_FALSE(stale) << "replace() renews the entry";
}

TEST(TierCache, DuplicateInsertKeepsTheResidentLadder) {
  TierCache cache(TierCacheOptions{.capacity_bytes = kMB, .shards = 1});
  const LadderPtr first = fake_ladder(10);
  ASSERT_TRUE(cache.insert(key_of(1), first));
  EXPECT_FALSE(cache.insert(key_of(1), fake_ladder(10)));
  EXPECT_EQ(cache.fetch(key_of(1)).get(), first.get());
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(TierCache, OversizeLadderIsRejectedNotThrashed) {
  TierCache cache(TierCacheOptions{.capacity_bytes = 1000, .shards = 1});
  ASSERT_TRUE(cache.insert(key_of(1), fake_ladder(500)));
  // Larger than the whole shard: admitting it would evict everything and
  // still not fit. insert() reports success-without-residency.
  EXPECT_TRUE(cache.insert(key_of(2), fake_ladder(5000)));
  EXPECT_EQ(cache.fetch(key_of(2)), nullptr);
  EXPECT_NE(cache.fetch(key_of(1)), nullptr) << "resident entries untouched";
  EXPECT_EQ(cache.stats().admission_rejects, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(TierCache, AdmissionRequiresABuiltLadder) {
  TierCache cache;
  EXPECT_THROW(cache.insert(key_of(1), nullptr), LogicError);
  EXPECT_THROW(cache.insert(key_of(1), std::make_shared<TierLadder>()), LogicError);
}

TEST(TierCache, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TierCache(TierCacheOptions{.shards = 1}).shard_count(), 1u);
  EXPECT_EQ(TierCache(TierCacheOptions{.shards = 3}).shard_count(), 4u);
  EXPECT_EQ(TierCache(TierCacheOptions{.shards = 8}).shard_count(), 8u);
  EXPECT_EQ(TierCache(TierCacheOptions{.shards = 0}).shard_count(), 1u);
}

TEST(ConfigFingerprint, StableForEqualConfigsSensitiveToEveryKnob) {
  const core::DeveloperConfig base;
  EXPECT_EQ(config_fingerprint(base), config_fingerprint(core::DeveloperConfig{}));

  std::vector<core::DeveloperConfig> variants(8, base);
  variants[0].tier_reductions = {1.25, 1.5, 3.0};
  variants[1].tier_reductions = {1.25, 1.5, 3.0, 6.5};
  variants[2].min_image_ssim = 0.8;
  variants[3].quality_weights.qss = 0.7;
  variants[4].stage2 = core::DeveloperConfig::Stage2::kGridSearch;
  variants[5].measure_qfs = false;
  variants[6].js_strategy = core::HbsOptions::JsStrategy::kAdjustable;
  variants[7].stage2_deadline_seconds = 30.0;
  std::vector<std::uint64_t> prints{config_fingerprint(base)};
  for (const auto& variant : variants) prints.push_back(config_fingerprint(variant));
  for (std::size_t i = 0; i < prints.size(); ++i) {
    for (std::size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j]) << "variants " << i << " and " << j << " collide";
    }
  }
}

TEST(ConfigFingerprint, UltraLowKnobsSeparateOnlyWhenEnabled) {
  const core::DeveloperConfig base;
  core::DeveloperConfig text_only = base;
  text_only.ultra_low.text_only = true;
  core::DeveloperConfig markup = base;
  markup.ultra_low.markup_rewrite = true;
  core::DeveloperConfig both = text_only;
  both.ultra_low.markup_rewrite = true;
  const std::vector<std::uint64_t> prints{config_fingerprint(base),
                                          config_fingerprint(text_only),
                                          config_fingerprint(markup), config_fingerprint(both)};
  for (std::size_t i = 0; i < prints.size(); ++i) {
    for (std::size_t j = i + 1; j < prints.size(); ++j) {
      EXPECT_NE(prints[i], prints[j]) << "ultra variants " << i << " and " << j << " collide";
    }
  }
}

// ---------------------------------------------------------------------------
// Histogram (the log2 buckets behind every *_seconds / *_bytes metric)
// ---------------------------------------------------------------------------

TEST(Histogram, PercentilesAreGeometricBucketMidpointsClampedToMax) {
  Histogram h;
  for (int i = 0; i < 80; ++i) h.record(1.5);    // bucket [1, 2)
  for (int i = 0; i < 15; ++i) h.record(100.0);  // bucket [64, 128)
  for (int i = 0; i < 5; ++i) h.record(5000.0);  // bucket [4096, 8192)
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 80 * 1.5 + 15 * 100.0 + 5 * 5000.0);
  EXPECT_DOUBLE_EQ(s.max, 5000.0);
  EXPECT_DOUBLE_EQ(s.p50, std::exp2(0.5));  // rank 50 of 100 lands in [1, 2)
  EXPECT_DOUBLE_EQ(s.p90, std::exp2(6.5));  // rank 90 lands in [64, 128)
  // Rank 99 lands in [4096, 8192) whose midpoint (~5793) overshoots the
  // largest sample ever recorded; the estimate clamps to the observed max.
  EXPECT_DOUBLE_EQ(s.p99, 5000.0);
}

TEST(Histogram, ExactPowerOfTwoLandsInTheBucketItOpens) {
  // 2.0 opens [2, 4): its estimate is exp2(1.5), not the [1, 2) midpoint.
  // The second sample keeps the observed max far above both midpoints so
  // the clamp stays out of the comparison.
  Histogram at_boundary;
  at_boundary.record(2.0);
  at_boundary.record(1048576.0);
  EXPECT_DOUBLE_EQ(at_boundary.snapshot().p50, std::exp2(1.5));

  Histogram just_below;
  just_below.record(std::nextafter(2.0, 0.0));  // largest double in [1, 2)
  just_below.record(1048576.0);
  EXPECT_DOUBLE_EQ(just_below.snapshot().p50, std::exp2(0.5));
}

TEST(Histogram, NonPositiveValuesClampToTheLowestBucket) {
  Histogram h;
  h.record(0.0);
  h.record(-3.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, -3.0) << "sum stays exact even for clamped samples";
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0) << "estimate clamps to the observed max";
}

TEST(Histogram, ValuesAboveTheTopBucketClampWithExactSumAndMax) {
  Histogram h;
  const double huge = std::exp2(60.0);  // far above the 2^44 top bucket
  h.record(huge);
  h.record(huge);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, 2.0 * huge);
  EXPECT_DOUBLE_EQ(s.max, huge);
  // Both samples sit in the top bucket [2^43, 2^44); its midpoint is the
  // estimate (well under the observed max, so no clamp).
  EXPECT_DOUBLE_EQ(s.p50, std::exp2(43.5));
}

// ---------------------------------------------------------------------------
// SingleFlight
// ---------------------------------------------------------------------------

TEST(SingleFlight, SoloCallRunsTheBuild) {
  SingleFlight<int, int> flight;
  int builds = 0;
  const auto value = flight.run(7, [&] {
    ++builds;
    return std::make_shared<const int>(42);
  });
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(*value, 42);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(flight.stats().leads, 1u);
  EXPECT_EQ(flight.stats().joins, 0u);
  // The finished flight left the registry: the same key leads again.
  (void)flight.run(7, [] { return std::make_shared<const int>(43); });
  EXPECT_EQ(flight.stats().leads, 2u);
  EXPECT_EQ(flight.stats().joins, 0u);
}

TEST(SingleFlight, WaitersShareTheLeadersBuild) {
  SingleFlight<int, int> flight;
  constexpr std::uint64_t kWaiters = 3;
  std::atomic<int> builds{0};
  const auto build = [&]() -> std::shared_ptr<const int> {
    builds.fetch_add(1);
    // Hold the flight open until every other thread has joined it, so the
    // collapse is guaranteed rather than racy-probable.
    while (flight.stats().joins < kWaiters) std::this_thread::yield();
    return std::make_shared<const int>(99);
  };
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(kWaiters + 1);
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] { results[i] = flight.run(5, build); });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result, 99);
    EXPECT_EQ(result.get(), results[0].get()) << "all callers share one value";
  }
  EXPECT_EQ(flight.stats().leads, 1u);
  EXPECT_EQ(flight.stats().joins, kWaiters);
}

TEST(SingleFlight, LeaderFailurePropagatesOnceToEveryWaiter) {
  SingleFlight<int, int> flight;
  constexpr std::uint64_t kWaiters = 3;
  std::atomic<int> builds{0};
  std::atomic<int> failures{0};
  const auto build = [&]() -> std::shared_ptr<const int> {
    builds.fetch_add(1);
    while (flight.stats().joins < kWaiters) std::this_thread::yield();
    throw Error("leader lost its build");
  };
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kWaiters + 1; ++i) {
    threads.emplace_back([&] {
      try {
        flight.run(5, build);
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(builds.load(), 1) << "waiters must not retry the failed build";
  EXPECT_EQ(failures.load(), static_cast<int>(kWaiters) + 1)
      << "every member of the flight observes the one failure";
  // The failed flight dissolved: the next call elects a fresh leader.
  const auto value = flight.run(5, [] { return std::make_shared<const int>(1); });
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(flight.stats().leads, 2u);
}

TEST(SingleFlight, JoinersRaiseTheLeadersDeadlineUnion) {
  SingleFlight<int, int> flight;
  std::atomic<double> seen_by_leader{0.0};
  std::thread leader([&] {
    flight.run(
        1,
        [&](const std::atomic<double>& deadline) -> std::shared_ptr<const int> {
          // Hold the build open until the joiner's CAS-max lands, exactly as
          // a real build would observe the union move mid-flight.
          while (deadline.load() < 10.0) std::this_thread::yield();
          seen_by_leader.store(deadline.load());
          return std::make_shared<const int>(7);
        },
        /*deadline_at=*/5.0);
  });
  // leads is bumped under the registry lock as the flight is registered.
  while (flight.stats().leads == 0) std::this_thread::yield();
  const auto joined = flight.run(
      1,
      [](const std::atomic<double>&) -> std::shared_ptr<const int> {
        ADD_FAILURE() << "the joiner must wait on the flight, not build";
        return nullptr;
      },
      /*deadline_at=*/10.0);
  leader.join();
  ASSERT_NE(joined, nullptr);
  EXPECT_EQ(*joined, 7);
  EXPECT_DOUBLE_EQ(seen_by_leader.load(), 10.0)
      << "the leader builds under the most generous waiter deadline";
  EXPECT_EQ(flight.stats().leads, 1u);
  EXPECT_EQ(flight.stats().joins, 1u);
}

// ---------------------------------------------------------------------------
// OriginServer (real pipeline builds on small pages)
// ---------------------------------------------------------------------------

class OriginServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 31, .rich = true});
    Rng rng(31);
    pages_ = new std::vector<web::WebPage>;
    pages_->push_back(gen.make_page(rng, 300 * kKB, gen.global_profile()));
    pages_->push_back(gen.make_page(rng, 500 * kKB, gen.global_profile()));
  }
  static void TearDownTestSuite() {
    delete pages_;
    pages_ = nullptr;
  }
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }

  static core::DeveloperConfig config() {
    core::DeveloperConfig config;
    config.tier_reductions = {2.0};
    config.min_image_ssim = 0.8;
    config.measure_qfs = false;
    return config;
  }

  static std::vector<OriginSite> sites() {
    return {OriginSite{"a.example", (*pages_)[0], config(), net::PlanType::kDataVoiceLowUsage},
            OriginSite{"B.Example", (*pages_)[1], config(), net::PlanType::kDataVoiceLowUsage}};
  }

  static net::HttpRequest get(const std::string& host,
                              std::initializer_list<net::HttpHeader> extra = {}) {
    net::HttpRequest request;
    if (!host.empty()) request.headers.push_back({"Host", host});
    for (const auto& header : extra) request.headers.push_back(header);
    return request;
  }

  static std::vector<web::WebPage>* pages_;
};

std::vector<web::WebPage>* OriginServerTest::pages_ = nullptr;

TEST_F(OriginServerTest, RoutesByHostCaseInsensitively) {
  const OriginServer origin(sites());
  const auto a = origin.handle(get("a.example"));
  const auto b = origin.handle(get("b.example:8080"));
  EXPECT_EQ(a.status, 200);
  EXPECT_EQ(b.status, 200);
  EXPECT_EQ(a.content_length, (*pages_)[0].transfer_size());
  EXPECT_EQ(b.content_length, (*pages_)[1].transfer_size());
}

TEST_F(OriginServerTest, RoutingErrorsAreCountedAndTyped) {
  const OriginServer origin(sites());
  EXPECT_EQ(origin.handle(get("")).status, 400);
  EXPECT_EQ(origin.handle(get("nobody.example")).status, 404);
  net::HttpRequest bad_path = get("a.example");
  bad_path.path = "/admin";
  EXPECT_EQ(origin.handle(bad_path).status, 404);
  net::HttpRequest post = get("a.example");
  post.method = "POST";
  EXPECT_EQ(origin.handle(post).status, 405);
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.requests_total, 4u);
  EXPECT_EQ(m.bad_request, 1u);
  EXPECT_EQ(m.not_found, 2u);
  EXPECT_EQ(m.bad_method, 1u);
  EXPECT_EQ(m.builds_started, 0u);
}

TEST_F(OriginServerTest, NonSavingRequestsNeverTriggerABuild) {
  const OriginServer origin(sites());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(origin.handle(get("a.example")).status, 200);
  }
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.served_original, 3u);
  EXPECT_EQ(m.builds_started, 0u) << "lazy builds: originals cost nothing";
  EXPECT_EQ(origin.cache_stats().misses, 0u);
}

TEST_F(OriginServerTest, FirstSavingRequestBuildsThenCacheServes) {
  const OriginServer origin(sites());
  const auto saver = get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}});
  const auto first = origin.handle(saver);
  EXPECT_EQ(first.status, 200);
  EXPECT_LT(first.content_length, (*pages_)[0].transfer_size());
  ASSERT_NE(first.header("AW4A-Tier"), nullptr);
  EXPECT_NE(*first.header("AW4A-Tier"), "none");
  const auto second = origin.handle(saver);
  EXPECT_EQ(second.content_length, first.content_length);

  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.builds_started, 1u) << "the second request must be a cache hit";
  EXPECT_EQ(m.served_paw_tier, 2u);
  const TierCacheStats c = origin.cache_stats();
  // Two misses for one build: the routing lookup and the leader's
  // double-check inside the flight both count.
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.inserts, 1u);
  EXPECT_EQ(origin.single_flight_stats().leads, 1u);
  EXPECT_EQ(m.build_seconds.count, 1u);
}

TEST_F(OriginServerTest, SavingsPreferenceIsServedAndCounted) {
  const OriginServer origin(sites());
  const auto response =
      origin.handle(get("a.example", {{"Save-Data", "on"}, {"AW4A-Savings", "50"}}));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.header("AW4A-Savings-Achieved"), nullptr);
  EXPECT_EQ(origin.metrics().served_preference_tier, 1u);
}

TEST_F(OriginServerTest, InvalidateHostServesStaleWhileRevalidating) {
  OriginServer origin(sites());
  const auto saver = get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}});
  origin.handle(saver);
  EXPECT_EQ(origin.invalidate_host("A.EXAMPLE"), 1u) << "one entry flagged stale";
  EXPECT_EQ(origin.invalidate_host("nobody.example"), 0u);
  // The stale ladder answers immediately — no inline rebuild in this
  // request's path — while a detached refresh rides the build queue.
  const auto stale_answer = origin.handle(saver);
  EXPECT_EQ(stale_answer.status, 200);
  ASSERT_NE(stale_answer.header("AW4A-Tier"), nullptr);
  EXPECT_NE(*stale_answer.header("AW4A-Tier"), "none") << "a real tier, not degraded";
  EXPECT_EQ(origin.metrics().ladder_stale, 1u);
  EXPECT_EQ(origin.metrics().stale_refreshes_queued, 1u);
  EXPECT_EQ(origin.cache_stats().stale_marks, 1u);
  EXPECT_EQ(origin.cache_stats().resident_entries, 1u) << "nothing was dropped";

  // The background rebuild lands and renews the entry.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (origin.metrics().builds_started < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(origin.metrics().builds_started, 2u) << "refresh build ran";
  // The replace is wired into the refresh completion, so once the build
  // count moved the insert may still be microseconds away — poll the cache.
  while (origin.cache_stats().inserts < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(origin.cache_stats().inserts, 2u) << "refresh result admitted";
  const auto fresh_answer = origin.handle(saver);
  EXPECT_EQ(fresh_answer.status, 200);
  EXPECT_EQ(origin.metrics().ladder_stale, 1u) << "entry is fresh again";
}

TEST_F(OriginServerTest, BuildFailureServesDegradedAndIsNotCached) {
  const OriginServer origin(sites());
  // First build fails (leader fault fires once); nothing may be cached.
  fault::configure("serving.build.leader", {.probability = 1.0, .max_fires = 1});
  const auto saver = get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}});
  const auto degraded = origin.handle(saver);
  EXPECT_EQ(degraded.status, 200);
  EXPECT_EQ(degraded.content_length, (*pages_)[0].transfer_size());
  ASSERT_NE(degraded.header("AW4A-Tier"), nullptr);
  EXPECT_EQ(*degraded.header("AW4A-Tier"), "none");
  EXPECT_NE(degraded.header("AW4A-Degraded"), nullptr);

  // The fault is exhausted: the retry builds cleanly and serves a tier.
  const auto recovered = origin.handle(saver);
  EXPECT_LT(recovered.content_length, (*pages_)[0].transfer_size());
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.builds_started, 2u);
  EXPECT_EQ(m.builds_failed, 1u);
  EXPECT_EQ(m.served_degraded, 1u);
  EXPECT_EQ(m.served_paw_tier, 1u);
  EXPECT_EQ(origin.cache_stats().inserts, 1u) << "failed build must not be admitted";
}

TEST_F(OriginServerTest, ShedIsAValueSharedByTheWholeFlight) {
  // Capacity 0 refuses every build. Eight askers of one cold site at once
  // form flights whose leaders are shed: the nullptr ladder reaches every
  // member as a value, each gets the shed answer, and nothing is cached.
  OriginOptions options;
  options.build_queue.capacity = 0;
  const OriginServer origin(sites(), options);
  const auto saver = get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}});
  std::vector<net::HttpResponse> answers(8);
  std::latch start(static_cast<std::ptrdiff_t>(answers.size()));
  std::vector<std::thread> askers;
  for (auto& answer : answers) {
    askers.emplace_back([&] {
      start.arrive_and_wait();
      answer = origin.handle(saver);
    });
  }
  for (auto& asker : askers) asker.join();

  const auto value = [](const net::HttpResponse& r, const char* name) {
    return r.header(name) != nullptr ? *r.header(name) : std::string("<absent>");
  };
  for (const net::HttpResponse& answer : answers) {
    EXPECT_EQ(answer.status, 200);
    EXPECT_EQ(answer.content_length, (*pages_)[0].transfer_size());
    EXPECT_EQ(value(answer, "AW4A-Tier"), "none");
    EXPECT_NE(answer.header("AW4A-Degraded"), nullptr);
    EXPECT_EQ(value(answer, "Retry-After"), "1");
  }
  EXPECT_EQ(origin.metrics().served_shed_degraded, 8u);
  EXPECT_EQ(origin.metrics().builds_started, 0u);
  const SingleFlightStats f = origin.single_flight_stats();
  EXPECT_EQ(f.leads + f.joins, 8u);
  EXPECT_EQ(origin.build_queue_stats().shed, f.leads) << "one refused admission per flight";
  EXPECT_EQ(origin.cache_stats().inserts, 0u);
}

TEST_F(OriginServerTest, StatsEndpointSpeaksJsonOverTheWire) {
  const OriginServer origin(sites());
  origin.handle(get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));
  origin.handle(get("a.example"));
  net::HttpRequest stats_request;  // the stats path needs no Host
  stats_request.path = "/aw4a/stats";
  const auto stats = origin.handle(stats_request);
  EXPECT_EQ(stats.status, 200);
  ASSERT_NE(stats.header("Content-Type"), nullptr);
  EXPECT_EQ(*stats.header("Content-Type"), "application/json");
  EXPECT_EQ(stats.content_length, stats.body.size());
  for (const char* needle :
       {"\"sites\":2", "\"requests\":", "\"cache\":", "\"hit_rate\":", "\"builds\":",
        "\"latency_seconds\":", "\"served_page_bytes\":", "\"leads\":1",
        "\"asset_store\":", "\"exact_hits\":", "\"misses\":"}) {
    EXPECT_NE(stats.body.find(needle), std::string::npos) << needle << " missing in\n"
                                                          << stats.body;
  }
  for (const char* gone : {"\"semantic_hits\"", "\"probes\"", "\"bypasses\""}) {
    EXPECT_EQ(stats.body.find(gone), std::string::npos) << gone << " in\n" << stats.body;
  }
  // Round-trips the wire: the body survives serialize/parse.
  const auto parsed = net::parse_response(net::serialize(stats));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->body, stats.body);
}

TEST_F(OriginServerTest, RequestCountersPartitionEveryOutcome) {
  const OriginServer origin(sites());
  origin.handle(get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));  // paw tier
  origin.handle(get("a.example"));                                                 // original
  origin.handle(get("a.example", {{"Save-Data", "on"}, {"AW4A-Savings", "50"}}));  // preference
  origin.handle(get(""));                                                          // 400
  origin.handle(get("nobody.example"));                                            // 404
  net::HttpRequest post = get("a.example");
  post.method = "POST";
  origin.handle(post);  // 405
  net::HttpRequest stats_request;
  stats_request.path = "/aw4a/stats";
  origin.handle(stats_request);  // stats
  net::HttpRequest trace_request = get("a.example", {{"Save-Data", "on"}});
  trace_request.path = "/aw4a/trace";
  origin.handle(trace_request);  // trace

  // A queue-admission shed, from an origin whose queue admits nothing:
  // degraded answer, counted apart from failure degradation.
  OriginOptions no_queue;
  no_queue.build_queue.capacity = 0;
  const OriginServer shedding(sites(), no_queue);
  const auto shed =
      shedding.handle(get("b.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));
  EXPECT_EQ(shed.status, 200);
  EXPECT_NE(shed.header("Retry-After"), nullptr);

  const auto expect_partitions = [](const MetricsSnapshot& m) {
    EXPECT_EQ(m.served_original + m.served_paw_tier + m.served_preference_tier +
                  m.served_degraded + m.served_shed_degraded + m.stats_requests +
                  m.trace_requests + m.not_found + m.bad_method + m.bad_request +
                  m.internal_errors,
              m.requests_total)
        << "every request lands in exactly one counter";
    EXPECT_EQ(m.served_paw_tier + m.served_preference_tier,
              m.ladder_cached + m.ladder_stale + m.ladder_built)
        << "every tier answer names its ladder source";
  };
  const MetricsSnapshot m = origin.metrics();
  expect_partitions(m);
  EXPECT_EQ(m.requests_total, 8u);
  EXPECT_EQ(m.served_shed_degraded, 0u);
  EXPECT_EQ(m.served_degraded, 0u);
  EXPECT_EQ(m.stats_requests, 1u);
  EXPECT_EQ(m.trace_requests, 1u);
  const MetricsSnapshot s = shedding.metrics();
  expect_partitions(s);
  EXPECT_EQ(s.requests_total, 1u);
  EXPECT_EQ(s.served_shed_degraded, 1u);

  // The content-addressed store under the cache keeps its own partition:
  // every per-image consult lands in exactly one outcome counter.
  const AssetStoreStats a = origin.asset_store_stats();
  EXPECT_GT(a.lookups, 0u) << "the cold builds above must consult the store";
  EXPECT_EQ(a.lookups, a.exact_hits + a.misses);
}

TEST_F(OriginServerTest, TierKindCountersPartitionTierAnswers) {
  // One site with ultra tiers on: a deep savings ask lands on an ultra rung
  // (named in AW4A-Tier), a mild ask on an image rung — and the tier_kinds
  // counters partition exactly the tier answers.
  core::DeveloperConfig ultra = config();
  ultra.ultra_low.text_only = true;
  ultra.ultra_low.markup_rewrite = true;
  const std::vector<OriginSite> one = {
      OriginSite{"u.example", (*pages_)[0], ultra, net::PlanType::kDataVoiceLowUsage}};
  const OriginServer origin(one);

  const auto deep =
      origin.handle(get("u.example", {{"Save-Data", "on"}, {"AW4A-Savings", "99"}}));
  EXPECT_EQ(deep.status, 200);
  ASSERT_NE(deep.header("AW4A-Tier"), nullptr);
  EXPECT_TRUE(*deep.header("AW4A-Tier") == "text-only" ||
              *deep.header("AW4A-Tier") == "markup-rewrite")
      << "deep asks must land on a named ultra tier, got " << *deep.header("AW4A-Tier");

  const auto mild =
      origin.handle(get("u.example", {{"Save-Data", "on"}, {"AW4A-Savings", "40"}}));
  ASSERT_NE(mild.header("AW4A-Tier"), nullptr);
  EXPECT_EQ(*mild.header("AW4A-Tier"), "0") << "image tiers keep their bare index";

  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.served_kind_image, 1u);
  EXPECT_EQ(m.served_kind_image + m.served_kind_text_only + m.served_kind_markup_rewrite,
            m.served_paw_tier + m.served_preference_tier)
      << "every tier answer names its rung kind";
  EXPECT_EQ(m.served_kind_text_only + m.served_kind_markup_rewrite, 1u);

  net::HttpRequest stats_request;
  stats_request.path = "/aw4a/stats";
  const auto stats = origin.handle(stats_request);
  for (const char* needle : {"\"tier_kinds\":", "\"image\":1", "\"text_only\":",
                             "\"markup_rewrite\":"}) {
    EXPECT_NE(stats.body.find(needle), std::string::npos) << needle << " missing in\n"
                                                          << stats.body;
  }
}

TEST_F(OriginServerTest, MirroredSitesShareBuiltAssetsByContent) {
  // Two hosts serving the same page: the tier cache keys on site identity so
  // each cold build runs, but the asset store keys on content — the mirror's
  // build must exact-hit every image and serve byte-identical results.
  const std::vector<OriginSite> mirrored = {
      OriginSite{"a.example", (*pages_)[0], config(), net::PlanType::kDataVoiceLowUsage},
      OriginSite{"mirror.example", (*pages_)[0], config(), net::PlanType::kDataVoiceLowUsage}};
  const OriginServer origin(mirrored);

  const auto first =
      origin.handle(get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));
  const AssetStoreStats after_first = origin.asset_store_stats();
  EXPECT_GT(after_first.misses, 0u);
  EXPECT_GT(after_first.inserts, 0u);
  EXPECT_EQ(after_first.exact_hits, 0u);

  const auto second =
      origin.handle(get("mirror.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));
  const AssetStoreStats after_second = origin.asset_store_stats();
  EXPECT_GT(after_second.exact_hits, 0u) << "the mirror build must reuse shared families";
  EXPECT_EQ(after_second.inserts, after_first.inserts)
      << "nothing new to build: every asset was already resident";
  EXPECT_EQ(after_second.lookups, after_second.exact_hits + after_second.misses);

  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(second.status, 200);
  EXPECT_EQ(first.content_length, second.content_length)
      << "adopted families are bit-identical, so the served tiers match";
}

TEST_F(OriginServerTest, AnswersMatchTheUncachedReference) {
  // The reference answer is the page's ladder built with nothing cached
  // (Aw4aPipeline::build_tiers) and answered by core::answer_page_request.
  // Everything the origin puts in front of that — tier cache, single-flight,
  // build queue, the content-addressed asset store, stale-while-revalidate —
  // may only save work: the whole response head must match the reference
  // cold, cached, and after a content push. The last site copies
  // the first page with every image a one-bit near-duplicate of the
  // original's: distinct content that must get its own measurements.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{
      .seed = 37, .rich = true, .cross_site_duplication_rate = 0.3});
  Rng rng(37);
  std::vector<OriginSite> corpus;
  std::vector<std::vector<core::Tier>> reference;
  for (std::size_t i = 0; i < 6; ++i) {
    corpus.push_back(OriginSite{"ref-" + std::to_string(i) + ".example",
                                gen.make_page(rng, 300 * kKB, gen.global_profile()), config(),
                                net::kAllPlans[i % net::kAllPlans.size()]});
  }
  {
    OriginSite near = corpus[0];
    near.host = "ref-near.example";
    for (web::WebObject& object : near.page.objects) {
      if (object.image == nullptr) continue;
      imaging::SourceImage copy = *object.image;
      copy.original.at(0, 0).r ^= 1;
      object.image = std::make_shared<const imaging::SourceImage>(std::move(copy));
    }
    corpus.push_back(std::move(near));
  }
  for (const OriginSite& site : corpus) {
    reference.push_back(core::Aw4aPipeline(site.config).build_tiers(site.page));
  }
  OriginServer origin(corpus);

  const auto check_pass = [&](const char* pass) {
    SCOPED_TRACE(pass);
    for (std::size_t s = 0; s < corpus.size(); ++s) {
      const OriginSite& site = corpus[s];
      for (const auto& extra : std::vector<std::vector<net::HttpHeader>>{
               {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}},
               {{"Save-Data", "on"}, {"X-Geo-Country", "PK"}},
               {{"Save-Data", "on"}, {"AW4A-Savings", "50"}},
               {}}) {
        net::HttpRequest request = get(site.host);
        request.headers.insert(request.headers.end(), extra.begin(), extra.end());
        const auto served = origin.handle(request);
        const auto expected =
            core::answer_page_request(site.page, reference[s], "", site.plan, request).response;
        const std::string what = site.host + " with " + std::to_string(extra.size()) +
                                 " extra headers" +
                                 (extra.size() == 2 ? " (" + extra[1].value + ")" : "");
        // The whole head as it goes on the wire: status line, every header
        // (names, values, order) and Content-Length.
        EXPECT_EQ(net::serialize(served), net::serialize(expected)) << what;
      }
    }
  };

  check_pass("cold");
  EXPECT_EQ(origin.metrics().builds_started, corpus.size());
  EXPECT_GT(origin.asset_store_stats().exact_hits, 0u)
      << "shared assets must take the store's adoption path";
  check_pass("cached");
  EXPECT_EQ(origin.metrics().builds_started, corpus.size()) << "the second pass is all hits";

  ASSERT_EQ(origin.invalidate_host(corpus[0].host), 1u);
  check_pass("stale");
  // The pushed site's refresh rebuilds in the background; once it has
  // landed, the renewed ladder must answer like the reference too.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (origin.cache_stats().inserts < corpus.size() + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(origin.cache_stats().inserts, corpus.size() + 1) << "the refresh landed";
  check_pass("refreshed");
  EXPECT_EQ(origin.metrics().builds_started, corpus.size() + 1);
}

TEST_F(OriginServerTest, GridSearchSiteAdoptsAWarmedMemoAndMatchesTheReference) {
  // A store warm fills only the families HBS reads. A Grid Search site whose
  // images another (HBS) site already warmed adopts that partial memo and
  // enumerates the quality families itself; its answers must still be the
  // reference's, as must the HBS site's.
  core::DeveloperConfig grid = config();
  grid.stage2 = core::DeveloperConfig::Stage2::kGridSearch;
  const std::vector<OriginSite> shared = {
      OriginSite{"hbs.example", (*pages_)[0], config(), net::PlanType::kDataVoiceLowUsage},
      OriginSite{"grid.example", (*pages_)[0], grid, net::PlanType::kDataVoiceLowUsage}};
  std::vector<std::vector<core::Tier>> reference;
  for (const OriginSite& site : shared) {
    reference.push_back(core::Aw4aPipeline(site.config).build_tiers(site.page));
  }
  const OriginServer origin(shared);

  std::uint64_t exact_hits_before = 0;
  for (std::size_t s = 0; s < shared.size(); ++s) {
    const OriginSite& site = shared[s];
    exact_hits_before = origin.asset_store_stats().exact_hits;
    for (const char* country : {"ET", "PK"}) {
      const net::HttpRequest request =
          get(site.host, {{"Save-Data", "on"}, {"X-Geo-Country", country}});
      const auto served = origin.handle(request);
      const auto expected =
          core::answer_page_request(site.page, reference[s], "", site.plan, request).response;
      EXPECT_EQ(served.status, expected.status) << site.host << " " << country;
      EXPECT_EQ(served.content_length, expected.content_length) << site.host << " " << country;
      ASSERT_NE(served.header("AW4A-Tier"), nullptr);
      ASSERT_NE(expected.header("AW4A-Tier"), nullptr);
      EXPECT_EQ(*served.header("AW4A-Tier"), *expected.header("AW4A-Tier"))
          << site.host << " " << country;
    }
  }
  EXPECT_GT(origin.asset_store_stats().exact_hits, exact_hits_before)
      << "the Grid Search build must adopt the HBS site's memos";
  EXPECT_EQ(origin.metrics().builds_started, shared.size());
}

TEST_F(OriginServerTest, ColdBuildFillsEveryStageHistogram) {
  // A 4x tier so Stage-2 definitely runs (Stage-1 alone cannot reach it).
  auto deep = sites();
  for (auto& site : deep) site.config.tier_reductions = {2.0, 4.0};
  const OriginServer origin(deep);
  origin.handle(get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));
  const MetricsSnapshot m = origin.metrics();
  EXPECT_GT(m.stage1_seconds.count, 0u);
  EXPECT_GT(m.stage2_seconds.count, 0u);
  EXPECT_GT(m.ssim_seconds.count, 0u);
  EXPECT_GT(m.encode_seconds.count, 0u);

  net::HttpRequest stats_request;
  stats_request.path = "/aw4a/stats";
  const auto stats = origin.handle(stats_request);
  for (const char* needle :
       {"\"stage_breakdown\":", "\"stage1_seconds\":", "\"stage2_seconds\":",
        "\"ssim_seconds\":", "\"encode_seconds\":", "\"trace\":0", "\"p90\":",
        "\"thread_pool\":", "\"tasks_submitted\":", "\"tasks_executed\":"}) {
    EXPECT_NE(stats.body.find(needle), std::string::npos) << needle << " missing in\n"
                                                          << stats.body;
  }
  EXPECT_EQ(stats.body.find("\"tasks_stolen\""), std::string::npos) << stats.body;
}

TEST_F(OriginServerTest, TraceEndpointDumpsSpansWithoutSkewingPageCounters) {
  auto deep = sites();
  for (auto& site : deep) site.config.tier_reductions = {2.0, 4.0};
  const OriginServer origin(deep);
  net::HttpRequest trace_request =
      get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}});
  trace_request.path = "/aw4a/trace";
  const auto traced = origin.handle(trace_request);
  EXPECT_EQ(traced.status, 200);
  ASSERT_NE(traced.header("Content-Type"), nullptr);
  EXPECT_EQ(*traced.header("Content-Type"), "application/json");
  EXPECT_EQ(traced.content_length, traced.body.size());
  for (const char* needle :
       {"\"host\":\"a.example\"", "\"save_data\":true", "\"served\":\"paw_tier\"",
        "\"span_count\":", "\"spans\":[", "\"name\":\"serving.build\"",
        "\"name\":\"build_tiers\"", "\"name\":\"stage1\"", "\"name\":\"stage2.",
        "\"name\":\"ssim\"", "\"name\":\"encode."}) {
    EXPECT_NE(traced.body.find(needle), std::string::npos) << needle << " missing in\n"
                                                           << traced.body;
  }
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.requests_total, 1u);
  EXPECT_EQ(m.trace_requests, 1u);
  EXPECT_EQ(m.served_original + m.served_paw_tier + m.served_preference_tier + m.served_degraded,
            0u)
      << "a trace probe is not a page answer";
  EXPECT_EQ(m.builds_started, 1u) << "the traced request runs the real build path";
  // The traced build is the real one: the next saving request hits the cache.
  origin.handle(get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));
  EXPECT_EQ(origin.metrics().builds_started, 1u);
}

TEST_F(OriginServerTest, ExhaustedSiteDeadlineDegradesTiersNotRequests) {
  auto rushed = sites();
  for (auto& site : rushed) site.config.stage2_deadline_seconds = 0.0;
  const OriginServer origin(rushed);
  const auto response =
      origin.handle(get("a.example", {{"Save-Data", "on"}, {"X-Geo-Country", "ET"}}));
  EXPECT_EQ(response.status, 200);
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.internal_errors, 0u) << "DeadlineExceeded must never escape to the server";
  EXPECT_EQ(m.builds_failed, 0u) << "deadline exhaustion degrades tiers, not whole builds";
  EXPECT_EQ(m.builds_started, 1u);
  ASSERT_NE(response.header("AW4A-Tier"), nullptr);
  EXPECT_NE(*response.header("AW4A-Tier"), "none") << "stage-1 fallback tiers still serve";
}

}  // namespace
}  // namespace aw4a::serving
