// Concurrency hammering for the serving subsystem, written to run clean
// under ThreadSanitizer (tools/tier1.sh builds it with -DAW4A_SANITIZE=thread).
//
// The contracts under load:
//   - TierCache + SingleFlight give exactly ONE build per key, no matter how
//     many threads miss at once;
//   - no waiter is lost: every call returns a ladder or observes its
//     flight's one failure;
//   - counters stay coherent (inserts == keys, duplicate inserts == 0, hits
//     + misses == lookups).
// Builds here are cheap fakes so the schedule churns; one OriginServer test
// at the end runs real pipeline builds end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "dataset/corpus.h"
#include "serving/origin.h"
#include "serving/single_flight.h"
#include "serving/tier_cache.h"
#include "util/error.h"
#include "util/rng.h"

namespace aw4a::serving {
namespace {

TierKey key_of(std::uint64_t site) { return TierKey{site, 1, net::PlanType::kDataOnly}; }

/// The ladder_for() protocol under test: cache fetch, single-flight, leader
/// double-check, build, admit. Returns the ladder every caller ended up with.
LadderPtr cached_build(TierCache& cache, SingleFlight<TierKey, TierLadder, TierKeyHash>& flight,
                       const TierKey& key, std::atomic<std::uint64_t>& builds) {
  if (LadderPtr resident = cache.fetch(key)) return resident;
  return flight.run(key, [&]() -> LadderPtr {
    if (LadderPtr resident = cache.fetch(key)) return resident;
    builds.fetch_add(1, std::memory_order_relaxed);
    auto ladder = std::make_shared<TierLadder>();
    ladder->tiers.resize(1);
    ladder->cost_bytes = 1000;
    cache.insert(key, ladder);
    return ladder;
  });
}

TEST(ServingStress, ExactlyOneBuildPerKeyAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 16;
  constexpr std::size_t kIterations = 400;

  TierCache cache(TierCacheOptions{.capacity_bytes = 64 * kMB, .shards = 4});
  SingleFlight<TierKey, TierLadder, TierKeyHash> flight;
  std::vector<std::atomic<std::uint64_t>> builds(kKeys);
  std::atomic<std::uint64_t> lost_waiters{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = Rng(2024).fork(t);
      for (std::size_t i = 0; i < kIterations; ++i) {
        const auto k = static_cast<std::uint64_t>(rng.uniform_int(0, kKeys - 1));
        const LadderPtr ladder = cached_build(cache, flight, key_of(k), builds[k]);
        if (ladder == nullptr || ladder->tiers.empty()) lost_waiters.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(lost_waiters.load(), 0u) << "every caller must get a ladder";
  std::uint64_t total_builds = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(builds[k].load(), 1u) << "key " << k << " built more than once";
    total_builds += builds[k].load();
  }
  EXPECT_EQ(total_builds, kKeys);

  const TierCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, kKeys);
  EXPECT_EQ(stats.resident_entries, kKeys);
  EXPECT_EQ(stats.evictions, 0u);
  // Every iteration did the outer lookup; each leader added a double-check.
  // All of them must be accounted as a hit or a miss, and the misses must be
  // exactly the outer misses (which all went to the flight) plus the kKeys
  // leader double-checks that found nothing and really built.
  const SingleFlightStats f = flight.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIterations + f.leads);
  EXPECT_EQ(stats.misses, f.leads + f.joins + kKeys);
}

TEST(ServingStress, FailingLeaderNeverStrandsWaiters) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIterations = 200;
  SingleFlight<int, int> flight;
  std::atomic<std::uint64_t> attempts{0};
  std::atomic<std::uint64_t> successes{0};
  std::atomic<std::uint64_t> failures{0};

  // Every odd-numbered build attempt of the key fails: flights alternate
  // between dissolving in error and succeeding, under full contention.
  const auto build = [&]() -> std::shared_ptr<const int> {
    const auto n = attempts.fetch_add(1) + 1;
    if (n % 2 == 1) throw Error("flaky leader " + std::to_string(n));
    return std::make_shared<const int>(static_cast<int>(n));
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kIterations; ++i) {
        try {
          const auto value = flight.run(7, build);
          ASSERT_NE(value, nullptr);
          successes.fetch_add(1);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(successes.load() + failures.load(), kThreads * kIterations)
      << "no call may block forever or vanish";
  EXPECT_GT(successes.load(), 0u);
  EXPECT_GT(failures.load(), 0u);
  EXPECT_EQ(flight.stats().leads, attempts.load())
      << "every attempt had exactly one leader";
  // Every flight left the registry: a fresh call of the key leads, not joins.
  const std::uint64_t joins = flight.stats().joins;
  (void)flight.run(7, [] { return std::make_shared<const int>(0); });
  EXPECT_EQ(flight.stats().leads, attempts.load() + 1);
  EXPECT_EQ(flight.stats().joins, joins);
}

TEST(ServingStress, EvictionChurnStaysCoherent) {
  // Capacity for only ~4 of 32 keys per shard: constant eviction while all
  // threads fetch/insert. The invariant is accounting, not residency.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 32;
  constexpr std::size_t kIterations = 500;
  TierCache cache(TierCacheOptions{.capacity_bytes = 8 * 1000, .shards = 2});
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = Rng(77).fork(t);
      for (std::size_t i = 0; i < kIterations; ++i) {
        const TierKey key = key_of(static_cast<std::uint64_t>(rng.uniform_int(0, kKeys - 1)));
        if (cache.fetch(key) == nullptr) {
          auto ladder = std::make_shared<TierLadder>();
          ladder->tiers.resize(1);
          ladder->cost_bytes = 1000;
          cache.insert(key, ladder);
        }
        if (i % 97 == 0) cache.mark_stale_site(key.site_id);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const TierCacheStats stats = cache.stats();
  EXPECT_LE(stats.resident_bytes, 8u * 1000u);
  EXPECT_EQ(stats.resident_bytes, stats.resident_entries * 1000u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.inserts, stats.evictions + stats.resident_entries)
      << "every admitted ladder is either resident or was evicted";
}

TEST(ServingStress, OriginServerConcurrentRealBuilds) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 17, .rich = true});
  Rng rng(17);
  core::DeveloperConfig config;
  config.tier_reductions = {2.0};
  config.min_image_ssim = 0.8;
  config.measure_qfs = false;
  std::vector<OriginSite> sites;
  sites.push_back(OriginSite{"site-0.example", gen.make_page(rng, 250 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});
  sites.push_back(OriginSite{"site-1.example", gen.make_page(rng, 250 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});
  const OriginServer origin(sites);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 6;
  std::atomic<std::uint64_t> bad_responses{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        net::HttpRequest request;
        request.headers = {{"Host", (t + i) % 2 == 0 ? "site-0.example" : "site-1.example"},
                           {"Save-Data", "on"},
                           {"X-Geo-Country", "ET"}};
        const auto response = origin.handle(request);
        if (response.status != 200 || response.header("AW4A-Tier") == nullptr) {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.requests_total, kThreads * kRequests);
  EXPECT_EQ(m.builds_started, 2u) << "one real build per site, ever";
  EXPECT_EQ(m.internal_errors, 0u);
  EXPECT_EQ(m.served_degraded, 0u);
  EXPECT_GT(origin.cache_stats().hits, 0u);
  // The stats endpoint is safe to read while metrics settle.
  net::HttpRequest stats_request;
  stats_request.path = "/aw4a/stats";
  EXPECT_EQ(origin.handle(stats_request).status, 200);
}

TEST(ServingStress, ConcurrentColdBuildsMatchAFreshOrigin) {
  // Real cold builds under TSan: multiple origin builds may run concurrently
  // (two sites here) while request threads hammer the cache. Outputs must
  // match a fresh origin, queried one request at a time, bit for bit.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 23, .rich = true});
  Rng rng(23);
  core::DeveloperConfig config;
  config.tier_reductions = {2.0, 4.0};
  config.min_image_ssim = 0.8;
  config.measure_qfs = false;
  std::vector<OriginSite> sites;
  sites.push_back(OriginSite{"warm-0.example", gen.make_page(rng, 220 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});
  sites.push_back(OriginSite{"warm-1.example", gen.make_page(rng, 220 * kKB, gen.global_profile()),
                             config, net::PlanType::kDataVoiceLowUsage});

  const OriginServer concurrent(sites);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 5;
  std::atomic<std::uint64_t> bad_responses{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        net::HttpRequest request;
        request.headers = {{"Host", (t + i) % 2 == 0 ? "warm-0.example" : "warm-1.example"},
                           {"Save-Data", "on"},
                           {"X-Geo-Country", "ET"}};
        const auto response = concurrent.handle(request);
        if (response.status != 200 || response.header("AW4A-Tier") == nullptr) {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  const MetricsSnapshot m = concurrent.metrics();
  EXPECT_EQ(m.builds_started, 2u) << "concurrent misses must not break single-flight";
  EXPECT_EQ(m.internal_errors, 0u);
  EXPECT_EQ(m.served_degraded, 0u);

  // Differential check: a fresh origin, built by one request at a time,
  // serves byte-identical pages.
  const OriginServer serial(sites);
  for (const char* host : {"warm-0.example", "warm-1.example"}) {
    net::HttpRequest request;
    request.headers = {{"Host", host}, {"Save-Data", "on"}, {"X-Geo-Country", "ET"}};
    const auto a = concurrent.handle(request);
    const auto b = serial.handle(request);
    EXPECT_EQ(net::serialize(a), net::serialize(b)) << host;
  }
}

TEST(ServingStress, QfsScoredColdBuildsUnderConcurrentLoad) {
  // Every other serving test turns QFS off; this one scores it, so the
  // per-build QFS memo runs under TSan. Concurrent builds of different sites
  // must each own their memo (one per build, never shared): the served
  // lengths must match a serial origin's exactly.
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 29, .rich = true});
  Rng rng(29);
  core::DeveloperConfig config;
  config.tier_reductions = {1.5, 3.0};
  config.min_image_ssim = 0.8;
  std::vector<OriginSite> sites;
  std::vector<std::string> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back("qfs-" + std::to_string(i) + ".example");
    sites.push_back(OriginSite{hosts.back(), gen.make_page(rng, 200 * kKB, gen.global_profile()),
                               config, net::PlanType::kDataVoiceLowUsage});
  }
  const OriginServer concurrent(sites);

  auto request_for = [](const std::string& host) {
    net::HttpRequest request;
    request.headers = {{"Host", host}, {"Save-Data", "on"}, {"X-Geo-Country", "ET"}};
    return request;
  };
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRequests = 3;
  std::atomic<std::uint64_t> bad_responses{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto response = concurrent.handle(request_for(hosts[(t + i) % hosts.size()]));
        if (response.status != 200 || response.header("AW4A-Tier") == nullptr) {
          bad_responses.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(bad_responses.load(), 0u);
  const MetricsSnapshot m = concurrent.metrics();
  EXPECT_EQ(m.builds_started, hosts.size());
  EXPECT_EQ(m.internal_errors, 0u);
  EXPECT_EQ(m.served_degraded, 0u);

  // Differential check: a fresh origin, built by one request at a time,
  // serves the same tier at the same length.
  const OriginServer serial(sites);
  for (const std::string& host : hosts) {
    const auto a = concurrent.handle(request_for(host));
    const auto b = serial.handle(request_for(host));
    ASSERT_NE(a.header("AW4A-Tier"), nullptr) << host;
    ASSERT_NE(b.header("AW4A-Tier"), nullptr) << host;
    EXPECT_GT(a.content_length, 0u) << host;
    EXPECT_EQ(a.content_length, b.content_length) << host;
    EXPECT_EQ(*a.header("AW4A-Tier"), *b.header("AW4A-Tier")) << host;
  }
}

}  // namespace
}  // namespace aw4a::serving
