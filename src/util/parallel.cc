#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace aw4a {
namespace {

constexpr const char* kCancelledMessage = "parallel_for cancelled before completion";

std::string describe(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// Shared state of one parallel_for call. Heap-owned via shared_ptr: runner
/// tasks queued in the pool may start (and immediately find no work) after
/// the originating call already returned, so they must not reference the
/// caller's stack. body and cancelled are therefore copied in.
struct Job {
  Job(std::size_t count, std::function<void(std::size_t)> body,
      std::function<bool()> cancelled)
      : count(count), body(std::move(body)), cancelled(std::move(cancelled)) {}

  const std::size_t count;
  const std::function<void(std::size_t)> body;
  const std::function<bool()> cancelled;

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::atomic<int> active{0};

  std::mutex m;
  std::condition_variable cv;
  std::vector<std::exception_ptr> errors;  // guarded by m
  bool cancel_recorded = false;            // guarded by m

  void record_error(std::exception_ptr error) {
    {
      const std::lock_guard<std::mutex> lock(m);
      errors.push_back(std::move(error));
    }
    failed.store(true, std::memory_order_release);
  }

  void record_cancel() {
    {
      const std::lock_guard<std::mutex> lock(m);
      // Every participant polls, so several can observe the cancellation;
      // report it once, not once per thread.
      if (!cancel_recorded) {
        cancel_recorded = true;
        errors.push_back(std::make_exception_ptr(DeadlineExceeded(kCancelledMessage)));
      }
    }
    failed.store(true, std::memory_order_release);
  }

  /// The claim loop every participant (pool runners and the calling thread
  /// alike) executes: poll cancellation, claim the next index, run it. A
  /// failure stops items not yet claimed; participants mid-body finish (or
  /// fail) their current item, so concurrent failures are all collected.
  /// A runner that starts after every index is claimed stops before it
  /// polls: the caller may have returned, and `cancelled` may read its
  /// stack.
  void run() {
    active.fetch_add(1, std::memory_order_acq_rel);
    while (!failed.load(std::memory_order_acquire)) {
      if (next.load(std::memory_order_acquire) >= count) break;
      if (cancelled && cancelled()) {
        record_cancel();
        break;
      }
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) break;
      try {
        body(i);
      } catch (...) {
        record_error(std::current_exception());
        break;
      }
    }
    if (active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      { const std::lock_guard<std::mutex> lock(m); }
      cv.notify_all();
    }
  }

  /// Complete = no participant is inside run() and no unclaimed work can
  /// start (either exhausted or failed). A late pool runner can bump
  /// `active` again after this holds, but it finds no work and touches only
  /// this heap-owned struct: it never calls `body` or `cancelled`.
  bool done() const {
    return active.load(std::memory_order_acquire) == 0 &&
           (failed.load(std::memory_order_acquire) ||
            next.load(std::memory_order_acquire) >= count);
  }
};

[[noreturn]] void throw_report(std::vector<std::exception_ptr> errors, std::size_t count) {
  if (errors.size() == 1) std::rethrow_exception(errors.front());
  // Several workers failed: one aggregate report instead of "first one wins".
  // Messages are sorted so the report is independent of thread arrival order.
  std::vector<std::string> messages;
  messages.reserve(errors.size());
  for (const auto& error : errors) messages.push_back(describe(error));
  std::sort(messages.begin(), messages.end());
  std::string report = std::to_string(errors.size()) + " of " + std::to_string(count) +
                       " parallel work items failed:";
  for (const std::string& message : messages) report += "\n  - " + message;
  throw Error(report);
}

}  // namespace

unsigned parallel_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                  unsigned requested_workers, const std::function<bool()>& cancelled) {
  AW4A_EXPECTS(body != nullptr);
  if (count == 0) return;
  const unsigned workers = std::min<std::size_t>(
      requested_workers == 0 ? parallel_workers() : requested_workers, count);
  if (workers <= 1) {
    // Inline: no pool submission, no cross-thread round-trip.
    for (std::size_t i = 0; i < count; ++i) {
      if (cancelled && cancelled()) throw DeadlineExceeded(kCancelledMessage);
      body(i);
    }
    return;
  }

  auto job = std::make_shared<Job>(count, body, cancelled);
  util::ThreadPool& pool = util::ThreadPool::shared();
  // Grow to honor the pinned count: the caller is one participant, the pool
  // provides the rest.
  pool.ensure_threads(static_cast<int>(workers) - 1);
  for (unsigned w = 1; w < workers; ++w) {
    pool.submit([job] { job->run(); });
  }
  job->run();

  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(job->m);
    job->cv.wait(lock, [&job] { return job->done(); });
    errors = std::move(job->errors);
  }
  if (!errors.empty()) throw_report(std::move(errors), count);
}

}  // namespace aw4a
