#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/error.h"

namespace aw4a::util {
namespace {

// The pool the calling thread works for; nullptr off-pool.
thread_local ThreadPool* tl_pool = nullptr;

}  // namespace

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  // Safe to walk without mu_: ensure_threads() never grows workers_ once
  // stop_ is set.
  for (std::thread& t : workers_) t.join();
  // Tasks still queued are dropped; submitters that need completion (e.g.
  // parallel_for) run the work themselves and never depend on runners.
}

void ThreadPool::ensure_threads(int n) {
  n = std::min(n, kMaxThreads);
  const std::lock_guard<std::mutex> lock(mu_);
  while (!stop_ && static_cast<int>(workers_.size()) < n) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

int ThreadPool::threads() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::submit(std::function<void()> task) {
  AW4A_EXPECTS(task != nullptr);
  ensure_threads(1);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tl_pool = this;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    task();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.threads = threads();
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  return s;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool* pool = new ThreadPool();  // leaked: see header
  return *pool;
}

bool ThreadPool::on_worker_thread() { return tl_pool != nullptr; }

}  // namespace aw4a::util
