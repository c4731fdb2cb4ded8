// One LRU eviction core, two very different customers.
//
// The browser-device simulation (net::LruByteCache) and the serving tier
// cache (serving::TierCache) both need the same primitive: a keyed map with
// strict recency order and a byte-cost budget. The simulation used to do an
// O(n) min-scan per eviction; at simulation scale that was tolerable, at
// serving scale it is not. LruMap is the shared core: a doubly-linked
// recency list (front = most recent) plus a key -> node index, giving O(1)
// touch / insert / erase / evict.
//
// LruMap is deliberately policy-free: no TTL, no capacity, no locking. The
// device cache layers staleness-by-max-age on top; the tier cache layers
// stale flags + a mutex per shard. Eviction *order* is exactly "least recently
// touched first", which matches the old min(last_used) scan because every
// touch was (and is) strictly ordered — simulation outputs are byte-identical
// across the rewrite (pinned in tests/net_cache_test.cc).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "util/error.h"

namespace aw4a {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  struct Entry {
    Key key;
    Value value;
    std::uint64_t cost = 0;
  };

  /// Looks up `key` and marks it most-recently-used. nullptr when absent.
  Value* touch(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->value;
  }

  /// Lookup without a recency update (monitoring, invalidation scans).
  const Value* peek(const Key& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }

  /// Inserts a new entry as most-recently-used. The key must be absent
  /// (callers decide replace semantics by erasing first).
  void insert(Key key, Value value, std::uint64_t cost) {
    AW4A_EXPECTS(index_.find(key) == index_.end());
    order_.push_front(Entry{key, std::move(value), cost});
    index_.emplace(std::move(key), order_.begin());
    total_cost_ += cost;
  }

  /// Removes one entry; false when the key is absent.
  bool erase(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    total_cost_ -= it->second->cost;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  /// Evicts the least-recently-touched entry (nullopt when empty).
  std::optional<Entry> evict_lru() {
    if (order_.empty()) return std::nullopt;
    Entry victim = std::move(order_.back());
    index_.erase(victim.key);
    total_cost_ -= victim.cost;
    order_.pop_back();
    return victim;
  }

  /// Visits every entry (value mutable) most-recent first, with no recency
  /// update — for in-place marking sweeps (e.g. stale-flagging a site's
  /// entries).
  template <typename Fn>
  void for_each(Fn fn) {
    for (Entry& entry : order_) fn(static_cast<const Key&>(entry.key), entry.value);
  }

  void clear() {
    order_.clear();
    index_.clear();
    total_cost_ = 0;
  }

  bool empty() const { return order_.empty(); }
  std::size_t size() const { return order_.size(); }

  /// Sum of the costs of all resident entries.
  std::uint64_t total_cost() const { return total_cost_; }

 private:
  std::list<Entry> order_;  // front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> index_;
  std::uint64_t total_cost_ = 0;
};

}  // namespace aw4a
