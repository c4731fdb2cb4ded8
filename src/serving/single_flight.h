// Single-flight build collapsing — the thundering-herd guard in front of
// TierCache. When N threads miss on the same key at once, exactly one (the
// leader) runs the expensive build; the other N-1 join the flight, block,
// and share the leader's result (a null one too: the origin's shed). A
// leader failure is snapshotted once (Error::clone) and re-raised as a
// private copy in every member of that flight, then the flight dissolves,
// so the next request elects a fresh leader: one failure is observed once
// per waiting request, never retried N times concurrently.
//
// The registry lock is held only to find/erase flights and publish results;
// the build itself runs unlocked, so flights for different keys proceed in
// parallel.
//
// Deadline union: with the deadline-aware overload, every flight carries an
// atomic deadline that starts at the leader's and is raised (CAS-max) by
// each joiner — the leader builds under the *most generous* deadline of
// anyone waiting on the result. That is the only sound choice: the build is
// shared, so stopping at the leader's own (possibly tightest) deadline would
// time out joiners who still had budget, while the union lets every waiter
// whose own deadline has passed give up independently at the serving layer
// and the rest still get a full result.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util/error.h"

namespace aw4a::serving {

struct SingleFlightStats {
  std::uint64_t leads = 0;  ///< calls that ran the build themselves
  std::uint64_t joins = 0;  ///< calls that waited on another call's flight
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class SingleFlight {
 public:
  using ValuePtr = std::shared_ptr<const Value>;

  /// Returns `build()`'s value, running it at most once across all calls
  /// that overlap on `key`. Rethrows the leader's exception in every member
  /// of a failed flight.
  ValuePtr run(const Key& key, const std::function<ValuePtr()>& build) {
    return run(
        key, [&](const std::atomic<double>&) { return build(); },
        std::numeric_limits<double>::infinity());
  }

  /// Deadline-aware variant: the leader's `build` receives the flight's live
  /// deadline union (monotonic seconds, +inf = none) — point a request
  /// context's shared deadline at it so joiners arriving mid-build can
  /// extend the leader's budget. `deadline_at` is this caller's own
  /// deadline; as a joiner it is CAS-maxed into the union before waiting.
  ValuePtr run(const Key& key,
               const std::function<ValuePtr(const std::atomic<double>&)>& build,
               double deadline_at) {
    std::unique_lock lock(mutex_);
    if (const auto it = flights_.find(key); it != flights_.end()) {
      const std::shared_ptr<Flight> flight = it->second;
      joins_.fetch_add(1, std::memory_order_relaxed);
      double seen = flight->deadline_union.load(std::memory_order_relaxed);
      while (seen < deadline_at && !flight->deadline_union.compare_exchange_weak(
                                       seen, deadline_at, std::memory_order_relaxed)) {
      }
      flight->done_cv.wait(lock, [&] { return flight->done; });
      if (flight->error) flight->error->raise();
      if (flight->raw_error) std::rethrow_exception(flight->raw_error);
      return flight->value;
    }
    const auto flight = std::make_shared<Flight>();
    flight->deadline_union.store(deadline_at, std::memory_order_relaxed);
    flights_.emplace(key, flight);
    leads_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();

    ValuePtr value;
    std::shared_ptr<const Error> error;
    std::exception_ptr raw_error;
    try {
      value = build(flight->deadline_union);
    } catch (const Error& e) {
      error = e.clone();
    } catch (...) {
      raw_error = std::current_exception();
    }

    lock.lock();
    flight->value = std::move(value);
    flight->error = error;
    flight->raw_error = raw_error;
    flight->done = true;
    flights_.erase(key);
    lock.unlock();
    // Waiters hold their own shared_ptr to the flight, so notifying after
    // the erase (and outside the lock) is safe and wakes them uncontended.
    flight->done_cv.notify_all();

    if (error) error->raise();
    if (raw_error) std::rethrow_exception(raw_error);
    return flight->value;
  }

  /// Read under the registry lock, which a joiner holds from counting its
  /// join until it waits: a caller that sees a join also sees that joiner's
  /// deadline already CAS-maxed into its flight's union.
  SingleFlightStats stats() const {
    const std::lock_guard lock(mutex_);
    return {leads_.load(std::memory_order_relaxed), joins_.load(std::memory_order_relaxed)};
  }

 private:
  struct Flight {
    bool done = false;  // guarded by mutex_
    ValuePtr value;     // written once, before done flips
    /// A failed leader's aw4a::Error, snapshotted via clone(); every member
    /// of the flight raise()s its own fresh copy. Rethrowing one shared
    /// exception_ptr from N threads would hand them all the same exception
    /// object, refcounted inside the uninstrumented C++ runtime — a pattern
    /// ThreadSanitizer reports as a race on the object's destruction.
    std::shared_ptr<const Error> error;  // written once, before done flips
    /// Fallback for non-Error exceptions (LogicError, bad_alloc): those
    /// indicate a bug rather than a recoverable failure, so the shared
    /// rethrow is acceptable there.
    std::exception_ptr raw_error;  // likewise
    std::condition_variable done_cv;
    /// Max over the leader's and every joiner's deadline (monotonic
    /// seconds); the leader's build reads it live through the reference
    /// passed to `build`.
    std::atomic<double> deadline_union{std::numeric_limits<double>::infinity()};
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<Flight>, Hash> flights_;
  std::atomic<std::uint64_t> leads_{0};
  std::atomic<std::uint64_t> joins_{0};
};

}  // namespace aw4a::serving
