#include "serving/asset_store.h"

#include <algorithm>
#include <bit>

#include "imaging/fingerprint.h"
#include "util/error.h"
#include "util/fault.h"
#include "util/hash.h"

namespace aw4a::serving {

std::size_t AssetKeyHash::operator()(const AssetKey& key) const {
  return static_cast<std::size_t>(
      hash_mix(hash_mix(0x6177346173737421ULL, key.content), key.recipe));
}

AssetStoreStats& AssetStoreStats::operator+=(const AssetStoreStats& other) {
  lookups += other.lookups;
  exact_hits += other.exact_hits;
  misses += other.misses;
  inserts += other.inserts;
  evictions += other.evictions;
  build_failures += other.build_failures;
  resident_entries += other.resident_entries;
  resident_bytes += other.resident_bytes;
  return *this;
}

AssetStore::AssetStore(AssetStoreOptions options) {
  AW4A_EXPECTS(options.capacity_bytes > 0);
  AW4A_EXPECTS(options.shards > 0);
  const std::size_t shard_count = std::bit_ceil(options.shards);
  shards_.resize(shard_count);
  shard_capacity_ = std::max<Bytes>(1, options.capacity_bytes / shard_count);
}

AssetStore::Shard& AssetStore::shard_of(const AssetKey& key) {
  return shards_[AssetKeyHash{}(key) & (shards_.size() - 1)];
}

Bytes AssetStore::entry_cost(const imaging::VariantMemo& memo) {
  Bytes cost = static_cast<Bytes>(sizeof(MemoPtr) + sizeof(imaging::VariantMemo));
  const auto family_cost = [](const std::optional<std::vector<imaging::ImageVariant>>& f) {
    return f ? static_cast<Bytes>(f->size() * sizeof(imaging::ImageVariant)) : 0;
  };
  for (std::size_t i = 0; i < 3; ++i) {
    cost += family_cost(memo.res_family[i]) + family_cost(memo.qual_family[i]);
  }
  return cost;
}

void AssetStore::admit(Shard& shard, const AssetKey& key, const MemoPtr& memo) {
  const Bytes cost = entry_cost(*memo);
  const std::lock_guard lock(shard.mutex);
  if (shard.lru.touch(key) != nullptr) return;  // a concurrent flight landed first
  if (cost > shard_capacity_) return;           // never admit what a shard can't hold
  while (shard.lru.total_cost() + cost > static_cast<std::uint64_t>(shard_capacity_)) {
    if (!shard.lru.evict_lru()) break;
    ++shard.counters.evictions;
  }
  shard.lru.insert(key, memo, static_cast<std::uint64_t>(cost));
  ++shard.counters.inserts;
}

AssetStore::MemoPtr AssetStore::acquire(
    const std::shared_ptr<const imaging::SourceImage>& asset,
    const imaging::LadderOptions& options, const obs::RequestContext& ctx) {
  AW4A_EXPECTS(asset != nullptr);
  try {
    AW4A_FAULT_POINT("serving.asset.store");
    AssetKey key;
    {
      AW4A_SPAN(ctx, "serving.asset.fingerprint");
      key.content = imaging::asset_fingerprint(*asset);
      key.recipe = hash_mix(imaging::asset_shape_fingerprint(*asset),
                            imaging::ladder_options_fingerprint(options));
    }
    Shard& shard = shard_of(key);

    {
      const std::lock_guard lock(shard.mutex);
      ++shard.counters.lookups;
      if (const MemoPtr* memo = shard.lru.touch(key)) {
        ++shard.counters.exact_hits;
        return *memo;
      }
      ++shard.counters.misses;
    }

    // Cold content: warm the ladder once per content key. The
    // flight collapses concurrent builds of the same content from *any*
    // page identity, and the leader builds under the union of every
    // waiter's deadline (joiners CAS-max theirs in).
    return flight_.run(
        key,
        [&](const std::atomic<double>& shared_deadline) -> MemoPtr {
          const obs::RequestContext build_ctx = ctx.with_shared_deadline(&shared_deadline);
          {
            // Double-check: between our miss and winning the flight, a
            // completed flight may have admitted this key.
            const std::lock_guard lock(shard.mutex);
            if (const MemoPtr* memo = shard.lru.touch(key)) return *memo;
          }
          MemoPtr memo;
          {
            AW4A_SPAN(ctx, "serving.asset.build");
            imaging::VariantLadder ladder(asset, options);
            ladder.warm(build_ctx);
            memo = std::make_shared<const imaging::VariantMemo>(ladder.snapshot());
          }
          admit(shard, key, memo);
          return memo;
        },
        ctx.deadline_at());
  } catch (const Error&) {
    // Containment: a store failure (codec fault, exhausted deadline) must
    // never fail the request — the caller enumerates locally under the
    // pipeline's normal degradation ladder.
    build_failures_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
}

AssetStoreStats AssetStore::stats() const {
  AssetStoreStats total;
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    AssetStoreStats with_gauges = shard.counters;
    with_gauges.resident_entries = shard.lru.size();
    with_gauges.resident_bytes = static_cast<Bytes>(shard.lru.total_cost());
    total += with_gauges;
  }
  total.build_failures += build_failures_.load(std::memory_order_relaxed);
  return total;
}

}  // namespace aw4a::serving
