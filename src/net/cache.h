// Browser-cache simulation (paper §2.2).
//
// Two methodologies, mirroring the paper's:
//  1. Infinite cache + Cache-Control max-age expiry, visits every 12 h for two
//     weeks. An object is re-downloaded on the first visit after it goes
//     stale. This defines the "cached page size" used throughout the paper.
//  2. A byte-capacity LRU cache standing in for device memory limits
//     (Nexus 5 vs Nokia 1), with a rotation of sites sharing the cache.
//
// The simulator works on abstract cacheable items so it can live below the
// web layer; aw4a::web adapts WebObject to CacheItem.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/lru.h"
#include "util/rng.h"

namespace aw4a::net {

/// Cache-Control policy of one response.
struct CachePolicy {
  /// Seconds the response may be reused; 0 with no_store=false means
  /// revalidate-every-visit (costs ~0 bytes: 304 responses are free here).
  std::uint64_t max_age_seconds = 0;
  /// no-store: the full body is transferred on every visit.
  bool no_store = false;

  static constexpr std::uint64_t kHour = 3600;
  static constexpr std::uint64_t kDay = 24 * kHour;
  static constexpr std::uint64_t kWeek = 7 * kDay;
};

/// Draws a max-age from the empirical-ish mix calibrated so that (a) the
/// median object max-age is ~2 weeks (paper §2.2 footnote 10) and (b) the
/// average cached page is ~41% of the non-cached page over the paper's visit
/// schedule (58.7% reduction).
CachePolicy sample_cache_policy(Rng& rng);

/// One cacheable response.
struct CacheItem {
  std::uint64_t id = 0;
  Bytes transfer_bytes = 0;
  CachePolicy policy;
};

/// The paper's visit schedule: every `interval_hours` for `duration_days`.
struct VisitSchedule {
  unsigned interval_hours = 12;
  unsigned duration_days = 14;

  /// Number of visits, including the initial one at t=0.
  std::size_t visit_count() const;
  /// Time of visit v (0-based), in seconds.
  std::uint64_t visit_time(std::size_t v) const;
};

/// Result of simulating one page under a schedule.
struct CacheRunResult {
  Bytes first_visit_bytes = 0;     ///< cold-cache page transfer size
  Bytes total_bytes = 0;           ///< across all visits
  double avg_bytes_per_visit = 0;  ///< total / visit_count — the "cached size"
};

/// Methodology 1: infinite storage, expiry by max-age only.
CacheRunResult simulate_infinite_cache(std::span<const CacheItem> page,
                                       const VisitSchedule& schedule);

/// A byte-capacity LRU cache shared by several pages (methodology 2).
class LruByteCache {
 public:
  explicit LruByteCache(Bytes capacity);

  /// Fetches an item at time `now_seconds`; returns the bytes transferred
  /// (0 on a fresh hit, the transfer size on miss/stale/no-store).
  Bytes fetch(const CacheItem& item, std::uint64_t now_seconds);

  Bytes capacity() const { return capacity_; }

  /// Empties the cache (models an OS-initiated clear under memory pressure).
  void clear();

 private:
  struct Stored {
    CacheItem item;
    std::uint64_t fetched_at = 0;
  };

  Bytes capacity_;
  // Shared O(1) eviction core (util/lru.h); recency is the list order, so no
  // explicit LRU tick is needed. serving::TierCache runs on the same core.
  LruMap<std::uint64_t, Stored> lru_;
};

/// Device profiles from the paper's smartphone experiment. Two effects bound
/// savings on entry-level devices (Qian et al., MobiSys'12, the paper's
/// [44]): the cache byte capacity, and the OS clearing the browser cache
/// under memory/storage pressure — far more often on a 1 GB device. The
/// flush probability applies per browsing session and is calibrated so the
/// measured reductions land near the paper's (Nexus 5: −60.9%, Nokia 1:
/// −21.4%).
struct DeviceProfile {
  std::string name;
  Bytes cache_capacity;
  double flush_probability = 0.0;  ///< P(cache cleared before a session)
};

DeviceProfile nexus5();
DeviceProfile nokia1();

/// Methodology 2: rotate through `pages` (each a vector of items) every
/// schedule interval on one device cache; returns the average page-size
/// reduction vs. the no-cache cost (e.g. 0.609 for −60.9%).
double simulate_device_cache(std::span<const std::vector<CacheItem>> pages,
                             const VisitSchedule& schedule, const DeviceProfile& device);

}  // namespace aw4a::net
