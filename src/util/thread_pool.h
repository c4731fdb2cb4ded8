// Persistent FIFO thread pool: one task queue, one mutex, one condition
// variable.
//
// Before this existed, parallel_for() spawned and joined fresh std::threads
// on every call. The pool keeps workers alive across calls. Every task it
// runs is coarse — a BuildQueue runner loop of whole ladder builds, or a
// parallel_for claim loop over a shared index — so workers take tasks in
// submission order from one shared queue; nothing gains from per-worker
// placement.
//
// Deadlock freedom for nested submission is a CALLER-side contract, not a
// pool feature: parallel_for() submits W-1 runner tasks and then runs the
// same claim loop on the submitting thread, so completion of any job never
// depends on the pool scheduling its runners. A runner that starts after
// its job already finished sees no work left and returns. Workers therefore
// only ever sleep on "queue empty".
//
// The pool grows on demand (ensure_threads) instead of pinning itself to
// hardware_concurrency: callers that pin a worker count — tests asserting
// 4-way concurrency, LadderCache::prewarm's pinned count — get real
// threads even on a single-core machine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aw4a::util {

class ThreadPool {
 public:
  /// Counters for /aw4a/stats and tests. `submitted`/`executed` count tasks
  /// handed to submit() (not parallel_for bodies, which mostly run inside
  /// claim loops).
  struct Stats {
    int threads = 0;
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
  };

  /// Hard cap on ensure_threads() growth.
  static constexpr int kMaxThreads = 256;

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Appends a task to the queue. Spawns the first worker lazily.
  void submit(std::function<void()> task);

  /// Grows the pool to at least `n` workers (clamped to kMaxThreads; never
  /// shrinks). Existing workers are unaffected.
  void ensure_threads(int n);

  int threads() const;

  Stats stats() const;

  /// The process-wide pool parallel_for() runs on. Intentionally leaked so
  /// worker threads never race static destruction at exit.
  static ThreadPool& shared();

  /// True when the calling thread is a worker of any ThreadPool. Used by
  /// tests to prove workers==1 runs inline on the caller's thread.
  static bool on_worker_thread();

 private:
  void worker_loop();

  mutable std::mutex mu_;  // guards tasks_, stop_ and workers_
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};

  std::vector<std::thread> workers_;  // last: the workers use every member above
};

}  // namespace aw4a::util
