// BuildQueue: the bounded admission-controlled work plane between the
// serving threads and the persistent util::ThreadPool — the piece that turns
// "a burst of cold sites does unbounded in-request work" into "a burst of
// cold sites does at most `workers` builds at once, `capacity` queued, and
// everything beyond that is shed to the degraded fast path".
//
// Ordering: queued builds are served highest-popularity first (a popular
// site's build unblocks more waiters), ties broken by earliest live
// deadline, then FIFO. The scan is linear over the queue — the queue is
// bounded small by design (admission sheds past `capacity`), so a linear
// pick beats maintaining a heap whose keys (live deadline unions) move
// underneath it.
//
// Admission: run()/submit_detached() never block on a full queue. When
// `capacity` jobs are already waiting (or the queue is shutting down), the
// caller is told to shed — by value, not exception: a nullptr ladder from
// run(), false from submit_detached() — and serves the degraded original
// immediately: queueing everything would just convert overload into
// unbounded latency for everyone.
//
// Expiry: a job whose flight deadline lapses while it waits is dropped —
// by the runner when popped (it never wastes a worker) or by its own waiter
// when the waiter notices first. Jobs enqueued with an *already expired*
// deadline are NOT dropped: the pipeline's anytime contract makes such
// builds cheap (Stage-1 only) and meaningful, so they keep their
// pre-queue semantics.
//
// Threading: run() blocks the calling thread until its build completes (the
// serving protocol is synchronous); the build itself executes on a shared
// ThreadPool worker, at most `workers` concurrently per queue. Builds may
// freely use parallel_for — nested pool submission is deadlock-free by the
// pool's claim-loop contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>

#include "obs/context.h"
#include "serving/metrics.h"
#include "serving/tier_cache.h"
#include "util/error.h"

namespace aw4a::serving {

struct BuildQueueOptions {
  /// Maximum builds waiting (not yet running). Admission past this sheds.
  std::size_t capacity = 64;
  /// Maximum builds running concurrently on the shared ThreadPool.
  int workers = 4;
};

/// Counter totals of one BuildQueue. admitted partitions into completed +
/// failed + expired + (depth + running at snapshot time); shed never
/// entered the queue.
struct BuildQueueStats {
  std::uint64_t admitted = 0;   ///< jobs accepted into the queue
  std::uint64_t shed = 0;       ///< admissions refused (saturation or fault)
  std::uint64_t expired = 0;    ///< admitted jobs dropped before running
  std::uint64_t completed = 0;  ///< builds that ran and returned a ladder
  std::uint64_t failed = 0;     ///< builds that ran and threw
  std::uint64_t depth = 0;      ///< gauge: queued (waiting) jobs
  std::uint64_t running = 0;    ///< gauge: builds executing right now
  HistogramSnapshot queue_wait_seconds;
};

class BuildQueue {
 public:
  using BuildFn = std::function<LadderPtr()>;

  /// `clock` (monotonic seconds, non-null) times queue waits; the origin
  /// passes its own so requests and queue share one timeline.
  BuildQueue(BuildQueueOptions options, std::function<double()> clock);
  /// Fails every queued job, then waits for running builds to finish (they
  /// complete normally — their results may already be wired to a cache).
  ~BuildQueue();
  BuildQueue(const BuildQueue&) = delete;
  BuildQueue& operator=(const BuildQueue&) = delete;

  /// Admits a build and blocks until a worker has run it, returning the
  /// built ladder — or nullptr at once when admission refused it (a shed;
  /// the caller degrades). Throws:
  ///   - DeadlineExceeded    the job expired while queued (ctx's deadline,
  ///                         including a live single-flight union, lapsed
  ///                         after admission),
  ///   - anything `build` threw.
  /// `popularity` orders the queue (higher first); `ctx` supplies the live
  /// deadline and receives a "serving.queue.wait" span.
  LadderPtr run(std::uint64_t popularity, const obs::RequestContext& ctx, BuildFn build);

  /// Fire-and-forget admission (the stale-while-revalidate refresh path).
  /// Returns false when shed (saturation or enqueue fault) — the caller
  /// simply keeps serving stale. On completion or expiry, `on_done` is
  /// called from the worker with the built ladder (nullptr when the build
  /// failed, expired, or the queue shut down).
  bool submit_detached(std::uint64_t popularity, const obs::RequestContext& ctx, BuildFn build,
                       std::function<void(LadderPtr)> on_done);

  std::size_t capacity() const { return options_.capacity; }
  int workers() const { return options_.workers; }
  /// Gauge: jobs waiting (excludes running builds). Never exceeds capacity().
  std::size_t depth() const;
  BuildQueueStats stats() const;

 private:
  struct Job {
    std::uint64_t popularity = 0;
    std::uint64_t seq = 0;        ///< FIFO tiebreak
    obs::RequestContext ctx;      ///< live deadline (shared unions stay live
                                  ///< because the waiter blocks in run())
    bool had_budget = false;      ///< deadline unexpired at enqueue; only such
                                  ///< jobs are expiry-dropped (anytime contract)
    double enqueued_at = 0.0;
    BuildFn build;
    std::function<void(LadderPtr)> on_done;  ///< detached jobs only
    bool detached = false;

    bool started = false;  ///< popped by a runner; waiters can no longer drop it
    bool done = false;
    LadderPtr value;
    std::exception_ptr error;
    std::condition_variable done_cv;
    std::list<std::shared_ptr<Job>>::iterator self;  ///< O(1) waiter removal
  };
  using JobPtr = std::shared_ptr<Job>;

  /// Shared admission: fault point + saturation check + enqueue + runner
  /// spawn. Returns nullptr when the job was shed.
  JobPtr admit(std::uint64_t popularity, const obs::RequestContext& ctx, BuildFn build,
               std::function<void(LadderPtr)> on_done, bool detached);
  /// Best queued job by (popularity desc, live deadline asc, seq asc);
  /// queue_.end() when empty. Linear: the queue is small by construction.
  std::list<JobPtr>::iterator pick_best();
  void runner_loop();
  /// Publishes a job's result and wakes its waiter. Lock held on entry and
  /// exit; dropped around the detached callback (which may re-enter the
  /// cache or queue).
  void finish(std::unique_lock<std::mutex>& lock, const JobPtr& job, LadderPtr value,
              std::exception_ptr error);

  BuildQueueOptions options_;
  std::function<double()> clock_;

  mutable std::mutex mutex_;
  std::list<JobPtr> queue_;  // unordered; pick_best scans
  int running_ = 0;
  bool shutdown_ = false;
  std::uint64_t next_seq_ = 0;
  std::condition_variable idle_cv_;  // running_ -> 0, for the destructor

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> expired_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  Histogram queue_wait_seconds_;
};

}  // namespace aw4a::serving
