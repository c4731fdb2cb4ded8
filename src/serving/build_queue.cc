#include "serving/build_queue.h"

#include <chrono>
#include <utility>

#include "util/thread_pool.h"

namespace aw4a::serving {

BuildQueue::BuildQueue(BuildQueueOptions options, std::function<double()> clock)
    : options_(options), clock_(std::move(clock)) {
  AW4A_EXPECTS(options_.workers >= 1 && clock_);
  // Real threads up front: a queue promising `workers`-way build concurrency
  // must not find a one-thread pool under a cold-start burst.
  util::ThreadPool::shared().ensure_threads(options_.workers);
}

BuildQueue::~BuildQueue() {
  std::list<JobPtr> orphans;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
    orphans.swap(queue_);
    for (const JobPtr& job : orphans) {
      job->started = true;
      job->done = true;
      if (!job->detached) {
        job->error = std::make_exception_ptr(Error("build queue shut down"));
      }
      job->done_cv.notify_all();
    }
    idle_cv_.wait(lock, [&] { return running_ == 0; });
  }
  // Detached completions outside the lock: the callbacks touch the cache,
  // which is still alive (the queue is declared last in OriginServer).
  for (const JobPtr& job : orphans) {
    if (job->detached && job->on_done) job->on_done(nullptr);
  }
}

BuildQueue::JobPtr BuildQueue::admit(std::uint64_t popularity, const obs::RequestContext& ctx,
                                     BuildFn build, std::function<void(LadderPtr)> on_done,
                                     bool detached) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_ || queue_.size() >= options_.capacity) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto job = std::make_shared<Job>();
  job->popularity = popularity;
  job->seq = next_seq_++;
  job->ctx = ctx;
  job->had_budget = !ctx.expired();
  job->enqueued_at = clock_();
  job->build = std::move(build);
  job->on_done = std::move(on_done);
  job->detached = detached;
  queue_.push_back(job);
  job->self = std::prev(queue_.end());
  admitted_.fetch_add(1, std::memory_order_relaxed);
  if (running_ < options_.workers) {
    ++running_;
    util::ThreadPool::shared().submit([this] { runner_loop(); });
  }
  return job;
}

LadderPtr BuildQueue::run(std::uint64_t popularity, const obs::RequestContext& ctx,
                          BuildFn build) {
  JobPtr job = admit(popularity, ctx, std::move(build), nullptr, /*detached=*/false);
  if (job == nullptr) return nullptr;  // shed
  std::unique_lock<std::mutex> lock(mutex_);
  while (!job->done) {
    // A job that was live at admission but lost its whole budget while
    // still waiting is withdrawn here rather than built for nobody. Jobs
    // admitted already-expired keep the pre-queue anytime semantics: their
    // Stage-1 build is cheap and its result is still served.
    if (!job->started && job->had_budget && ctx.expired()) {
      queue_.erase(job->self);
      expired_.fetch_add(1, std::memory_order_relaxed);
      throw DeadlineExceeded("build queue: flight deadline expired while queued");
    }
    // Polling (not a pure cv wait) because expiry is a clock edge, not an
    // event anyone signals; 1ms keeps the check off the build's critical
    // path while bounding how stale an expiry decision can be.
    job->done_cv.wait_for(lock, std::chrono::milliseconds(1));
  }
  if (job->error) std::rethrow_exception(job->error);
  return job->value;
}

bool BuildQueue::submit_detached(std::uint64_t popularity, const obs::RequestContext& ctx,
                                 BuildFn build, std::function<void(LadderPtr)> on_done) {
  return admit(popularity, ctx, std::move(build), std::move(on_done), /*detached=*/true) !=
         nullptr;
}

std::list<BuildQueue::JobPtr>::iterator BuildQueue::pick_best() {
  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (best == queue_.end()) {
      best = it;
      continue;
    }
    const Job& a = **it;
    const Job& b = **best;
    if (a.popularity != b.popularity) {
      if (a.popularity > b.popularity) best = it;
      continue;
    }
    const double da = a.ctx.deadline_at();
    const double db = b.ctx.deadline_at();
    if (da != db) {
      if (da < db) best = it;
      continue;
    }
    if (a.seq < b.seq) best = it;
  }
  return best;
}

void BuildQueue::finish(std::unique_lock<std::mutex>& lock, const JobPtr& job, LadderPtr value,
                        std::exception_ptr error) {
  job->value = std::move(value);
  job->error = error;
  job->done = true;
  job->done_cv.notify_all();
  if (job->detached && job->on_done) {
    std::function<void(LadderPtr)> on_done = std::move(job->on_done);
    lock.unlock();
    on_done(job->value);
    lock.lock();
  }
}

void BuildQueue::runner_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!shutdown_) {
    auto it = pick_best();
    if (it == queue_.end()) break;
    JobPtr job = *it;
    queue_.erase(it);
    job->started = true;
    if (job->had_budget && job->ctx.expired()) {
      // Expired while queued: don't waste the worker. The waiter (if any)
      // sees DeadlineExceeded, exactly as if it had withdrawn itself.
      expired_.fetch_add(1, std::memory_order_relaxed);
      finish(lock, job, nullptr,
             job->detached ? nullptr
                           : std::make_exception_ptr(DeadlineExceeded(
                                 "build queue: deadline expired while queued")));
      continue;
    }
    const double wait = clock_() - job->enqueued_at;
    queue_wait_seconds_.record(wait);
    // Manual span (no SpanScope: the wait started on another thread, at
    // enqueue, not here).
    if (obs::TraceBuffer* trace = job->ctx.trace()) {
      trace->add(obs::Span{"serving.queue.wait", job->enqueued_at, wait});
    }
    if (obs::SpanSink* sink = job->ctx.sink()) sink->on_span("serving.queue.wait", wait);
    lock.unlock();
    LadderPtr value;
    std::exception_ptr error;
    try {
      value = job->build();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    (error ? failed_ : completed_).fetch_add(1, std::memory_order_relaxed);
    finish(lock, job, std::move(value), error);
  }
  if (--running_ == 0) idle_cv_.notify_all();
}

std::size_t BuildQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

BuildQueueStats BuildQueue::stats() const {
  BuildQueueStats s;
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.expired = expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.depth = queue_.size();
    s.running = static_cast<std::uint64_t>(running_);
  }
  s.queue_wait_seconds = queue_wait_seconds_.snapshot();
  return s;
}

}  // namespace aw4a::serving
