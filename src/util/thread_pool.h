// Persistent work-stealing thread pool.
//
// Before this existed, parallel_for() spawned and joined fresh std::threads
// on every call — a prewarm enumerating dozens of ladder families paid
// thread creation per family. The pool keeps workers alive across calls:
// each worker owns a deque it pushes and pops LIFO (submissions from a
// worker land on its own deque, keeping nested work hot in cache) and
// steals FIFO from its siblings when its own deque runs dry.
//
// Deadlock freedom for nested submission is a CALLER-side contract, not a
// pool feature: parallel_for() submits W-1 runner tasks and then runs the
// same claim loop on the submitting thread, so completion of any job never
// depends on the pool scheduling its runners. A runner that starts after
// its job already finished sees no work left and returns. The pool itself
// therefore never needs to block a worker on another task's completion —
// workers only ever sleep on "no tasks anywhere".
//
// The pool grows on demand (ensure_threads) instead of pinning itself to
// hardware_concurrency: callers that pin a worker count — tests asserting
// 4-way concurrency, LadderCache::prewarm's pinned count — get real
// threads even on a single-core machine, preserving the semantics of the
// thread-per-call implementation this replaces.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace aw4a::util {

class ThreadPool {
 public:
  /// Counters for /aw4a/stats and tests. `submitted`/`executed` count tasks
  /// handed to submit() (not parallel_for bodies, which mostly run inside
  /// claim loops); `stolen` counts executions that came off another worker's
  /// deque.
  struct Stats {
    int threads = 0;
    std::uint64_t submitted = 0;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
  };

  /// Hard cap on ensure_threads() growth.
  static constexpr int kMaxThreads = 256;

  ThreadPool() = default;
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. From a worker of this pool the task lands on that
  /// worker's own deque (LIFO, cache-hot for nested work); from any other
  /// thread, deques are targeted round-robin. Spawns the first worker lazily.
  void submit(std::function<void()> task);

  /// Grows the pool to at least `n` workers (clamped to kMaxThreads; never
  /// shrinks). Existing workers are unaffected.
  void ensure_threads(int n);

  int threads() const { return thread_count_.load(std::memory_order_acquire); }

  Stats stats() const;

  /// The process-wide pool parallel_for() runs on. Intentionally leaked so
  /// worker threads never race static destruction at exit.
  static ThreadPool& shared();

  /// True when the calling thread is a worker of any ThreadPool. Used by
  /// tests to prove workers==1 runs inline on the caller's thread.
  static bool on_worker_thread();

 private:
  struct Queue {
    std::mutex m;
    std::deque<std::function<void()>> q;
  };

  void worker_loop(int index);
  bool try_pop(int self, std::function<void()>& task, int& from);

  // Queue slots are created before thread_count_ is published (release) and
  // never destroyed until the pool dies, so scanners indexing below an
  // acquire-loaded thread_count_ always see fully-constructed queues.
  std::array<std::unique_ptr<Queue>, kMaxThreads> queues_;
  std::atomic<int> thread_count_{0};
  std::mutex growth_mu_;  // guards workers_ and slot construction
  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards stop_; pairs with cv_ for sleep/wake
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint32_t> rr_{0};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
};

}  // namespace aw4a::util
