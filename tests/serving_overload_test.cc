// Overload behavior of the build plane, written to run clean under
// ThreadSanitizer (tools/tier1.sh builds it with -DAW4A_SANITIZE=thread).
//
// The contracts when demand exceeds build capacity:
//   - the BuildQueue never holds more than its bound, no matter how many
//     threads storm admission at once;
//   - every shed request still gets a 200 degraded answer with the shed
//     contract headers (AW4A-Tier: none, AW4A-Degraded, Retry-After) —
//     overload NEVER surfaces as a 5xx or an internal error;
//   - counters partition exactly: admissions into completed/failed/expired,
//     page answers into original/paw/preference/degraded/shed_degraded, and
//     tier answers into cached/stale/built ladder sources;
//   - a queued job whose deadline lapses before a worker frees up is
//     dropped, not built (pinned with an injected clock — no sleeping).
// Queue-level tests use fake builds so the schedule churns; the origin
// tests run real pipeline builds end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "dataset/corpus.h"
#include "serving/build_queue.h"
#include "serving/origin.h"
#include "util/error.h"
#include "util/rng.h"

namespace aw4a::serving {
namespace {

LadderPtr fake_ladder() {
  auto ladder = std::make_shared<TierLadder>();
  ladder->tiers.resize(1);
  ladder->cost_bytes = 1000;
  return ladder;
}

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(BuildQueueOverloadTest, BoundNeverExceededAndCountersPartition) {
  constexpr std::size_t kCapacity = 4;
  constexpr int kCallers = 32;
  BuildQueue queue(BuildQueueOptions{.capacity = kCapacity, .workers = 2}, steady_seconds);

  std::atomic<bool> release{false};
  std::atomic<int> finished{0};
  std::atomic<int> got_ladder{0};
  std::atomic<int> got_shed{0};
  const auto build = [&]() -> LadderPtr {
    // Hold the workers until the storm has fully arrived, so the queue
    // actually fills and admission actually sheds.
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return fake_ladder();
  };

  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      const LadderPtr ladder =
          queue.run(static_cast<std::uint64_t>(i), obs::RequestContext::none(), build);
      (ladder != nullptr ? got_ladder : got_shed).fetch_add(1);
      finished.fetch_add(1);
    });
  }

  // Sample the bound from this thread while the storm is in flight, and
  // release the workers once every caller has passed admission.
  std::size_t max_depth = 0;
  while (finished.load() < kCallers) {
    max_depth = std::max(max_depth, queue.depth());
    const BuildQueueStats s = queue.stats();
    if (s.admitted + s.shed >= static_cast<std::uint64_t>(kCallers)) {
      release.store(true, std::memory_order_release);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& caller : callers) caller.join();

  EXPECT_LE(max_depth, kCapacity) << "queue depth must never exceed its bound";
  const BuildQueueStats s = queue.stats();
  EXPECT_EQ(s.admitted + s.shed, static_cast<std::uint64_t>(kCallers))
      << "every caller was admitted or shed, exactly once";
  EXPECT_EQ(s.completed + s.failed + s.expired, s.admitted)
      << "every admitted job was resolved, exactly once";
  EXPECT_EQ(s.depth, 0u);
  EXPECT_EQ(s.running, 0u);
  EXPECT_EQ(got_ladder.load(), static_cast<int>(s.completed));
  EXPECT_EQ(got_shed.load(), static_cast<int>(s.shed));
  EXPECT_GT(s.shed, 0u) << "32 callers against capacity 4 + 2 workers must shed";
  EXPECT_EQ(s.queue_wait_seconds.count, s.completed)
      << "one queue-wait sample per build that ran";
}

TEST(BuildQueueOverloadTest, ExpiredQueuedJobIsDroppedNotBuilt) {
  std::atomic<double> now{0.0};
  const auto clock = [&now] { return now.load(); };
  BuildQueue queue(BuildQueueOptions{.capacity = 4, .workers = 1}, clock);
  const obs::RequestContext base = obs::RequestContext().with_clock(clock);

  // Job A occupies the only worker until released. Wait for its build to
  // start, not just for a runner to be counted: a runner that has not yet
  // picked A would pick B first (earlier deadline) and build it.
  std::atomic<bool> release{false};
  std::atomic<bool> a_started{false};
  std::atomic<int> b_builds{0};
  std::thread a_caller([&] {
    const LadderPtr ladder = queue.run(0, base, [&]() -> LadderPtr {
      a_started.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return fake_ladder();
    });
    EXPECT_NE(ladder, nullptr);
  });
  while (!a_started.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Job B is admitted with 10s of budget, then loses all of it while
  // waiting: its waiter must get DeadlineExceeded and its build never runs.
  std::thread b_caller([&] {
    EXPECT_THROW(queue.run(0, base.with_deadline_after(10.0),
                           [&]() -> LadderPtr {
                             b_builds.fetch_add(1);
                             return fake_ladder();
                           }),
                 DeadlineExceeded);
  });
  while (queue.stats().admitted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  now.store(100.0);
  b_caller.join();
  release.store(true, std::memory_order_release);
  a_caller.join();

  EXPECT_EQ(b_builds.load(), 0) << "an expired queued job must not waste the worker";
  const BuildQueueStats s = queue.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 1u);

  // The anytime contract survives: a job admitted with its deadline ALREADY
  // expired keeps its pre-queue semantics (cheap Stage-1 build), it is not
  // dropped.
  std::atomic<int> born_expired_builds{0};
  const LadderPtr anytime = queue.run(0, base.with_deadline_after(0.0), [&]() -> LadderPtr {
    born_expired_builds.fetch_add(1);
    return fake_ladder();
  });
  EXPECT_NE(anytime, nullptr);
  EXPECT_EQ(born_expired_builds.load(), 1);
  EXPECT_EQ(queue.stats().expired, 1u) << "born-expired jobs are built, not dropped";
}

TEST(BuildQueueOverloadTest, DetachedSubmitCompletesOrShedsCleanly) {
  BuildQueue queue(BuildQueueOptions{.capacity = 2, .workers = 1}, steady_seconds);
  std::atomic<int> done_calls{0};
  std::atomic<bool> got_result{false};
  ASSERT_TRUE(queue.submit_detached(
      1, obs::RequestContext::none(), [] { return fake_ladder(); },
      [&](LadderPtr built) {
        got_result.store(built != nullptr);
        done_calls.fetch_add(1);
      }));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done_calls.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done_calls.load(), 1);
  EXPECT_TRUE(got_result.load());

  // A queue that admits nothing sheds a detached submit: false, no crash,
  // no callback.
  BuildQueue full(BuildQueueOptions{.capacity = 0, .workers = 1}, steady_seconds);
  EXPECT_FALSE(full.submit_detached(
      1, obs::RequestContext::none(), [] { return fake_ladder(); },
      [&](LadderPtr) { done_calls.fetch_add(1); }));
  EXPECT_EQ(done_calls.load(), 1) << "a shed submit must not invoke its callback";
  EXPECT_EQ(full.stats().shed, 1u);
}

// ---------------------------------------------------------------------------
// OriginServer under overload (real pipeline builds)
// ---------------------------------------------------------------------------

class OriginOverloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 47, .rich = true});
    Rng rng(47);
    pages_ = new std::vector<web::WebPage>;
    for (int i = 0; i < 3; ++i) {
      pages_->push_back(gen.make_page(rng, 200 * kKB, gen.global_profile()));
    }
  }
  static void TearDownTestSuite() {
    delete pages_;
    pages_ = nullptr;
  }
  static std::vector<OriginSite> sites() {
    core::DeveloperConfig config;
    config.tier_reductions = {2.0};
    config.min_image_ssim = 0.8;
    config.measure_qfs = false;
    std::vector<OriginSite> out;
    for (std::size_t i = 0; i < pages_->size(); ++i) {
      out.push_back(OriginSite{"site-" + std::to_string(i) + ".example", (*pages_)[i], config,
                               net::PlanType::kDataVoiceLowUsage});
    }
    return out;
  }

  static net::HttpRequest saver(std::size_t site) {
    net::HttpRequest request;
    request.headers = {{"Host", "site-" + std::to_string(site) + ".example"},
                       {"Save-Data", "on"},
                       {"X-Geo-Country", "ET"}};
    return request;
  }

  static std::vector<web::WebPage>* pages_;
};

std::vector<web::WebPage>* OriginOverloadTest::pages_ = nullptr;

TEST_F(OriginOverloadTest, EveryShedRequestGetsA200DegradedAnswer) {
  // Capacity 0: admission always sheds, so every save-data request takes
  // the shed fast path. The contract: 200, the degraded original, the shed
  // headers — and zero internal errors, under concurrency.
  OriginOptions options;
  options.build_queue.capacity = 0;
  options.build_queue.workers = 1;
  const OriginServer origin(sites(), options);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRequests = 25;
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        const auto response = origin.handle(saver((t + i) % 3));
        const bool ok = response.status == 200 &&
                        response.header("AW4A-Tier") != nullptr &&
                        *response.header("AW4A-Tier") == "none" &&
                        response.header("AW4A-Degraded") != nullptr &&
                        response.header("Retry-After") != nullptr &&
                        response.content_length > 0;
        if (!ok) violations.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(violations.load(), 0u) << "every shed answer must be a complete degraded 200";
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.requests_total, kThreads * kRequests);
  EXPECT_EQ(m.served_shed_degraded, kThreads * kRequests);
  EXPECT_EQ(m.served_degraded, 0u);
  EXPECT_EQ(m.internal_errors, 0u);
  EXPECT_EQ(m.builds_started, 0u) << "shedding must cost zero build work";
  EXPECT_EQ(origin.build_queue_stats().shed, origin.single_flight_stats().leads)
      << "one shed per flight; joiners shed with their leader";
}

TEST_F(OriginOverloadTest, CountersPartitionUnderOverloadWithInvalidation) {
  // A tight build plane (capacity 1, one worker) under a concurrent storm,
  // with a mid-run invalidation for stale-while-revalidate churn: every
  // answer must land in exactly one bucket and the buckets must add up.
  OriginOptions options;
  options.build_queue.capacity = 1;
  options.build_queue.workers = 1;
  const OriginServer origin(sites(), options);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRequests = 30;
  std::atomic<std::uint64_t> non_200{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kRequests; ++i) {
        if (t == 0 && i == kRequests / 2) {
          const_cast<OriginServer&>(origin).invalidate_host("site-0.example");
        }
        if (origin.handle(saver((t + i) % 3)).status != 200) non_200.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(non_200.load(), 0u) << "overload must never produce a non-200 page answer";
  const MetricsSnapshot m = origin.metrics();
  EXPECT_EQ(m.internal_errors, 0u);
  EXPECT_EQ(m.requests_total, kThreads * kRequests);
  // Partition 1: every save-data answer is a tier, a degraded original, or
  // a shed degraded original.
  EXPECT_EQ(m.served_paw_tier + m.served_preference_tier + m.served_degraded +
                m.served_shed_degraded + m.served_original,
            m.requests_total);
  // Partition 2: every tier answer names its ladder source.
  EXPECT_EQ(m.served_paw_tier + m.served_preference_tier,
            m.ladder_cached + m.ladder_stale + m.ladder_built);
  // Partition 3: the queue resolved everything it admitted (after drain —
  // the origin is idle once all request threads joined, but a detached
  // refresh may still be settling).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  BuildQueueStats q = origin.build_queue_stats();
  while (q.completed + q.failed + q.expired < q.admitted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    q = origin.build_queue_stats();
  }
  EXPECT_EQ(q.completed + q.failed + q.expired, q.admitted);
  EXPECT_EQ(q.depth, 0u);
}

}  // namespace
}  // namespace aw4a::serving
