// Contract tests for the persistent FIFO pool and the parallel_for built on
// it: worker-count clamp semantics, nested-submission deadlock freedom,
// error aggregation through the pool path, cancellation stopping
// not-yet-claimed work, the destructor joining its workers, and growth
// racing submission. The robustness_test ParallelFor suite (and
// serving_stress_test under TSan) continues to cover the error-contract and
// data-race surface.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace aw4a {
namespace {

// --- Worker-count clamp (satellite: 0 -> default, 1 -> inline) ---

TEST(ParallelForClamp, ZeroWorkersUsesDefaultAndCompletes) {
  std::atomic<std::size_t> ran{0};
  parallel_for(64, [&](std::size_t) { ran.fetch_add(1); }, /*workers=*/0);
  EXPECT_EQ(ran.load(), 64u);
}

TEST(ParallelForClamp, OneWorkerRunsInlineOnCallingThread) {
  // No pool round-trip: every body observes the calling thread, which is not
  // a pool worker, and the shared pool sees zero new submissions.
  const auto before = util::ThreadPool::shared().stats();
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t ran = 0;
  parallel_for(
      32,
      [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_FALSE(util::ThreadPool::on_worker_thread());
        ++ran;  // unsynchronized on purpose: inline means single-threaded
      },
      /*workers=*/1);
  EXPECT_EQ(ran, 32u);
  const auto after = util::ThreadPool::shared().stats();
  EXPECT_EQ(after.submitted, before.submitted);
}

TEST(ParallelForClamp, SingleItemRunsInlineRegardlessOfWorkerCount) {
  const auto before = util::ThreadPool::shared().stats();
  const std::thread::id caller = std::this_thread::get_id();
  parallel_for(1, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
               /*workers=*/8);
  const auto after = util::ThreadPool::shared().stats();
  EXPECT_EQ(after.submitted, before.submitted);
}

TEST(ParallelForClamp, PinnedCountDeliversRealConcurrency) {
  // The pool grows on demand, so a pinned 4 is truly 4-way even on one core
  // — all four bodies can be simultaneously in flight.
  constexpr unsigned kWorkers = 4;
  std::atomic<unsigned> entered{0};
  parallel_for(
      kWorkers,
      [&](std::size_t) {
        entered.fetch_add(1);
        while (entered.load() < kWorkers) std::this_thread::yield();
      },
      kWorkers);
  EXPECT_EQ(entered.load(), kWorkers);
  EXPECT_GE(util::ThreadPool::shared().threads(), static_cast<int>(kWorkers) - 1);
}

// --- Nested submission (satellite: no deadlock from worker threads) ---

TEST(ThreadPoolNesting, ParallelForInsideParallelForCompletes) {
  // Every outer body runs an inner parallel_for. The calling thread of each
  // inner call (a pool worker) participates in its own claim loop, so
  // completion never waits on the pool having idle workers — this finishes
  // even when the pool is saturated by the outer level.
  std::atomic<std::size_t> inner_total{0};
  parallel_for(
      4,
      [&](std::size_t) {
        parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); }, /*workers=*/2);
      },
      /*workers=*/4);
  EXPECT_EQ(inner_total.load(), 32u);
}

TEST(ThreadPoolNesting, SubmitFromWorkerDoesNotDeadlock) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.ensure_threads(2);
  std::atomic<bool> inner_ran{false};
  std::atomic<bool> outer_done{false};
  pool.submit([&] {
    EXPECT_TRUE(util::ThreadPool::on_worker_thread());
    pool.submit([&] { inner_ran.store(true); });
    outer_done.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!(inner_ran.load() && outer_done.load()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(outer_done.load());
  EXPECT_TRUE(inner_ran.load()) << "task submitted from a worker was never scheduled";
}

// --- Error aggregation through the pool path ---

TEST(ThreadPoolErrors, NestedFailurePreservesTypeAcrossPoolBoundary) {
  EXPECT_THROW(parallel_for(
                   4,
                   [&](std::size_t i) {
                     parallel_for(
                         4,
                         [&](std::size_t j) {
                           if (i == 1 && j == 2) throw Infeasible("inner fault");
                         },
                         /*workers=*/2);
                   },
                   /*workers=*/4),
               Infeasible);
}

// --- Cancellation (satellite: poll stops not-yet-claimed work) ---

TEST(ParallelForCancel, CancellationStopsUnclaimedWorkAndThrowsDeadline) {
  constexpr unsigned kWorkers = 4;
  std::atomic<std::size_t> executed{0};
  std::atomic<bool> cancel{false};
  try {
    parallel_for(
        10000,
        [&](std::size_t) {
          executed.fetch_add(1);
          cancel.store(true);  // first bodies flip the flag; the rest must not start
        },
        kWorkers, [&] { return cancel.load(); });
    FAIL() << "should have thrown DeadlineExceeded";
  } catch (const DeadlineExceeded&) {
  }
  // Each participant claims at most one body after the flag flips (the poll
  // runs before every claim), so execution stops at ~worker-count items.
  EXPECT_LE(executed.load(), static_cast<std::size_t>(kWorkers));
  EXPECT_GE(executed.load(), 1u);
}

TEST(ParallelForCancel, PreCancelledInlineCallRunsNothing) {
  std::size_t ran = 0;
  EXPECT_THROW(parallel_for(100, [&](std::size_t) { ++ran; }, /*workers=*/1,
                            [] { return true; }),
               DeadlineExceeded);
  EXPECT_EQ(ran, 0u);
}

TEST(ParallelForCancel, NullPollMeansNoCancellation) {
  std::atomic<std::size_t> ran{0};
  parallel_for(16, [&](std::size_t) { ran.fetch_add(1); }, /*workers=*/2);
  EXPECT_EQ(ran.load(), 16u);
}

TEST(ParallelForCancel, LateRunnersNeverPollAfterTheCallReturns) {
  // Every pool worker is parked on a blocker, so the runners parallel_for
  // submits can only start after the call has returned: the caller claims
  // every item itself. A late runner must then stop without polling, since
  // the poll reads the caller's stack (prewarm's reads its RequestContext).
  constexpr unsigned kWorkers = 3;
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.ensure_threads(static_cast<int>(kWorkers) - 1);
  const int threads = pool.threads();
  std::atomic<int> parked{0};
  std::atomic<int> left{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < threads; ++i) {
    pool.submit([&] {
      parked.fetch_add(1);
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      left.fetch_add(1);
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (parked.load() < threads && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(parked.load(), threads);

  struct Probe {
    std::atomic<bool> returned{false};
    std::atomic<int> late_polls{0};
  };
  auto probe = std::make_shared<Probe>();
  std::size_t ran = 0;
  {
    const std::atomic<bool> stop_requested{false};  // caller-stack state the poll reads
    parallel_for(
        8, [&](std::size_t) { ++ran; }, kWorkers,
        [probe, &stop_requested] {
          if (probe->returned.load()) {
            probe->late_polls.fetch_add(1);
            return true;
          }
          return stop_requested.load();
        });
    probe->returned.store(true);
  }
  EXPECT_EQ(ran, 8u);

  // Unpark the pool and wait for the late runners: the job holds the last
  // copies of the poll (and so of `probe`) until its final runner is done.
  release.store(true);
  while (probe.use_count() > 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(probe.use_count(), 1) << "late runners never finished";
  EXPECT_EQ(probe->late_polls.load(), 0) << "a runner polled after parallel_for returned";

  // The blockers read `release` and `left` on this frame: every one must be
  // out before the test returns, or it spins on a dead frame holding a worker.
  while (left.load() < threads) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// --- Pool bookkeeping ---

TEST(ThreadPoolStats, CountsSubmissionsAndExecutions) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  const auto before = pool.stats();
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ran.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(ran.load(), 8);
  const auto after = pool.stats();
  EXPECT_EQ(after.submitted - before.submitted, 8u);
  EXPECT_GE(after.executed - before.executed, 8u);
}

TEST(ThreadPoolStats, EnsureThreadsGrowsAndNeverShrinks) {
  util::ThreadPool& pool = util::ThreadPool::shared();
  pool.ensure_threads(3);
  const int grown = pool.threads();
  EXPECT_GE(grown, 3);
  pool.ensure_threads(1);  // no shrink
  EXPECT_EQ(pool.threads(), grown);
}

TEST(ThreadPoolLifetime, DestructorJoinsEveryWorker) {
  // shared() is leaked, so only a local pool reaches ~ThreadPool. It must
  // wait for the task a worker is running and then join every worker.
  std::atomic<int> ran{0};
  std::atomic<bool> blocker_done{false};
  std::latch parked(1);
  std::latch release(1);
  {
    util::ThreadPool pool;
    pool.ensure_threads(3);
    for (int i = 0; i < 16; ++i) pool.submit([&] { ran.fetch_add(1); });
    pool.submit([&] {
      parked.count_down();
      release.wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      blocker_done.store(true);
    });
    parked.wait();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (ran.load() < 16 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_EQ(pool.threads(), 3);
    EXPECT_EQ(pool.stats().submitted, 17u);
    release.count_down();
  }
  EXPECT_EQ(ran.load(), 16);
  EXPECT_TRUE(blocker_done.load()) << "the destructor returned before its worker finished";
}

TEST(ThreadPoolStats, GrowthDuringSubmissionLosesNoTask) {
  // Four submitters race a fifth thread growing the pool: every task still
  // runs exactly once, and the counters agree.
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 500;
  constexpr int kTotal = kSubmitters * kTasksEach;
  util::ThreadPool pool;
  std::atomic<int> ran{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTasksEach; ++i) pool.submit([&] { ran.fetch_add(1); });
    });
  }
  threads.emplace_back([&] {
    for (int n = 2; n <= 6; ++n) pool.ensure_threads(n);
  });
  for (std::thread& t : threads) t.join();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ran.load() < kTotal && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(ran.load(), kTotal);
  const auto stats = pool.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.executed, stats.submitted);
  EXPECT_GE(pool.threads(), 6);
}

TEST(ThreadPoolWork, BodiesRunOnPoolWorkersWhenParallel) {
  // With a pinned count > 1, at least one body should land off the calling
  // thread (the runners spin on a barrier so the caller cannot finish the
  // whole range alone).
  constexpr unsigned kWorkers = 3;
  std::atomic<unsigned> entered{0};
  std::atomic<int> on_pool{0};
  parallel_for(
      kWorkers,
      [&](std::size_t) {
        entered.fetch_add(1);
        while (entered.load() < kWorkers) std::this_thread::yield();
        if (util::ThreadPool::on_worker_thread()) on_pool.fetch_add(1);
      },
      kWorkers);
  EXPECT_GE(on_pool.load(), static_cast<int>(kWorkers) - 1);
}

}  // namespace
}  // namespace aw4a
