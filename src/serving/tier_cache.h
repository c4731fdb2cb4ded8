// TierCache: the concurrent, bounded cache of built tier ladders that turns
// the multi-site origin from "build per request" into "build per site".
//
// Keying: (site id, DeveloperConfig fingerprint, plan). The fingerprint
// covers every §5.4 knob that changes tier output, so a config push simply
// stops matching the old entries — no version plumbing, the stale ladders
// age out of the LRU. Entries never expire by age: a site's page and config
// are fixed at construction, so an entry stays correct until a content push
// flags it stale (mark_stale_site) or the LRU evicts it.
//
// Concurrency: the key space is split across power-of-two shards, each a
// mutex + intrusive LRU (util/lru.h) + its own counters, so serving threads
// only contend when they hash to the same shard. Ladders are handed out as
// shared_ptr<const TierLadder>: eviction never invalidates a ladder a
// response is still reading.
//
// Admission: insert() is only ever called with a successfully built,
// non-empty ladder. Failed builds are served degraded and rebuilt on the
// next request — caching a failure would pin the outage until eviction.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/pipeline.h"
#include "net/plan.h"
#include "obs/context.h"
#include "util/bytes.h"
#include "util/lru.h"

namespace aw4a::serving {

/// What one cached ladder is keyed by. Two sites never share an entry even
/// with identical configs (site_id differs); one site's entries for an old
/// config are orphaned, not overwritten, when the fingerprint moves.
struct TierKey {
  std::uint64_t site_id = 0;
  std::uint64_t config_fingerprint = 0;
  net::PlanType plan = net::PlanType::kDataOnly;
  bool operator==(const TierKey&) const = default;
};

struct TierKeyHash {
  std::size_t operator()(const TierKey& key) const;
};

/// Stable 64-bit digest of the §5.4 knobs that shape tier output. Same
/// config -> same fingerprint across processes and runs (pure arithmetic,
/// no pointers, no ASLR).
std::uint64_t config_fingerprint(const core::DeveloperConfig& config);

/// One immutable built ladder, shared between the cache and every response
/// currently reading it.
struct TierLadder {
  std::vector<core::Tier> tiers;
  /// Sum of the tiers' result bytes: what the entry charges against the
  /// cache capacity.
  Bytes cost_bytes = 0;
  double build_seconds = 0.0;
};
using LadderPtr = std::shared_ptr<const TierLadder>;

/// Counter totals, per shard or summed (TierCache::stats).
struct TierCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;          ///< capacity evictions
  std::uint64_t admission_rejects = 0;  ///< ladders larger than a whole shard
  std::uint64_t stale_marks = 0;        ///< entries flagged by mark_stale_site
  std::uint64_t stale_hits = 0;         ///< hits on stale entries (also hits)
  std::uint64_t resident_entries = 0;   ///< gauge at snapshot time
  Bytes resident_bytes = 0;             ///< gauge at snapshot time

  double hit_rate() const {
    const auto total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }
  TierCacheStats& operator+=(const TierCacheStats& other);
};

struct TierCacheOptions {
  /// Total budget, split evenly across shards.
  Bytes capacity_bytes = 256 * kMB;
  /// Rounded up to a power of two. 1 is valid (a single mutexed cache).
  std::size_t shards = 8;
};

class TierCache {
 public:
  explicit TierCache(TierCacheOptions options = {});

  /// The resident ladder (recency refreshed) or nullptr. Never throws.
  /// `ctx` only feeds tracing (a "serving.cache.fetch" span) — a cache probe
  /// is never deadline-checked. When `stale_out` is non-null it is set to
  /// whether the returned ladder was flagged by mark_stale_site — the
  /// stale-while-revalidate signal (a stale hit is still a hit: the caller
  /// serves it and queues a refresh).
  LadderPtr fetch(const TierKey& key, const obs::RequestContext& ctx = obs::RequestContext::none(),
                  bool* stale_out = nullptr);

  /// Admits a built ladder, evicting least-recently-used entries to fit.
  /// Returns false when the key is already resident — a concurrent builder
  /// won the race and the resident entry is kept (the caller still owns a
  /// perfectly good ladder to serve). A ladder that cannot fit even an
  /// empty shard is not admitted (admission_rejects); the call still
  /// returns true. Pre: ladder is non-null with at least one tier.
  /// `ctx` only feeds tracing ("serving.cache.insert").
  bool insert(const TierKey& key, LadderPtr ladder,
              const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Replaces the resident ladder for `key` (or inserts if absent) — the
  /// stale-while-revalidate refresh completion. Same admission rules as
  /// insert(), but an existing entry is overwritten, not kept.
  bool replace(const TierKey& key, LadderPtr ladder,
               const obs::RequestContext& ctx = obs::RequestContext::none());

  /// Stale-while-revalidate invalidation: flags every resident ladder of
  /// `site_id` stale instead of dropping it, so requests keep getting
  /// answers at full cache speed while rebuilds queue behind admission
  /// control. Returns the number newly flagged.
  std::size_t mark_stale_site(std::uint64_t site_id);

  TierCacheStats stats() const;  ///< summed over shards
  std::vector<TierCacheStats> shard_stats() const;
  std::size_t shard_count() const { return shards_.size(); }
  Bytes capacity_bytes() const { return shard_capacity_ * shards_.size(); }

 private:
  struct Resident {
    LadderPtr ladder;
    bool stale = false;  ///< mark_stale_site flag; cleared by replace()
  };
  struct Shard {
    mutable std::mutex mutex;
    LruMap<TierKey, Resident, TierKeyHash> lru;
    TierCacheStats counters;  // guarded by mutex; gauges filled at snapshot
  };

  Shard& shard_of(const TierKey& key);
  /// Shared eviction + admission tail of insert()/replace(). Shard lock held.
  void admit_locked(Shard& shard, const TierKey& key, LadderPtr ladder);

  Bytes shard_capacity_ = 0;
  std::deque<Shard> shards_;  // deque: Shard is immovable (mutex member)
};

}  // namespace aw4a::serving
