#include "serving/tier_cache.h"

#include <algorithm>

#include "util/error.h"
#include "util/hash.h"

namespace aw4a::serving {
namespace {

// The digest primitive lives in util/hash.h (shared with the imaging content
// fingerprints); `mix` keeps the call sites below readable.
constexpr auto mix = [](std::uint64_t h, auto v) { return hash_mix(h, v); };

}  // namespace

std::size_t TierKeyHash::operator()(const TierKey& key) const {
  std::uint64_t h = mix(0x6177346153525620ULL, key.site_id);
  h = mix(h, key.config_fingerprint);
  h = mix(h, static_cast<std::uint64_t>(key.plan));
  return static_cast<std::size_t>(h);
}

std::uint64_t config_fingerprint(const core::DeveloperConfig& config) {
  std::uint64_t h = 0x4157344143464721ULL;
  h = mix(h, static_cast<std::uint64_t>(config.tier_reductions.size()));
  for (const double reduction : config.tier_reductions) h = mix(h, reduction);
  h = mix(h, config.min_image_ssim);
  h = mix(h, config.quality_weights.qss);
  h = mix(h, config.quality_weights.qfs);
  h = mix(h, config.rbr_area_weight);
  h = mix(h, config.rbr_bytes_efficiency_weight);
  h = mix(h, static_cast<std::uint64_t>(config.stage2));
  h = mix(h, config.grid_timeout_seconds);
  h = mix(h, config.stage1.min_transcode_ssim);
  h = mix(h, config.stage1.minify_gain);
  h = mix(h, config.stage1.font_metadata_fraction);
  h = mix(h, static_cast<std::uint64_t>(config.measure_qfs));
  h = mix(h, static_cast<std::uint64_t>(config.js_strategy));
  h = mix(h, config.stage2_deadline_seconds);
  // The entropy backend changes every measured byte count, so tiers built
  // under different backends must never be served interchangeably.
  h = mix(h, static_cast<std::uint64_t>(config.entropy_backend));
  // The ultra-low tier knobs (DESIGN.md §14) change both the tier *count* and
  // the rung space every solver searches, so mixed-rung configs must never
  // alias image-only ones. Folded in only when a tier is enabled, keeping
  // every pre-existing image-only fingerprint bit-identical.
  if (config.ultra_low.any()) {
    h = mix(h, std::uint64_t{0x6177347574696c21ULL});
    h = mix(h, static_cast<std::uint64_t>(config.ultra_low.text_only));
    h = mix(h, static_cast<std::uint64_t>(config.ultra_low.markup_rewrite));
  }
  return h;
}

TierCacheStats& TierCacheStats::operator+=(const TierCacheStats& other) {
  hits += other.hits;
  misses += other.misses;
  inserts += other.inserts;
  evictions += other.evictions;
  admission_rejects += other.admission_rejects;
  stale_marks += other.stale_marks;
  stale_hits += other.stale_hits;
  resident_entries += other.resident_entries;
  resident_bytes += other.resident_bytes;
  return *this;
}

TierCache::TierCache(TierCacheOptions options)
    : shards_(std::bit_ceil(std::max<std::size_t>(std::size_t{1}, options.shards))) {
  AW4A_EXPECTS(options.capacity_bytes >= shards_.size());
  shard_capacity_ = options.capacity_bytes / shards_.size();
}

TierCache::Shard& TierCache::shard_of(const TierKey& key) {
  return shards_[TierKeyHash{}(key) & (shards_.size() - 1)];
}

LadderPtr TierCache::fetch(const TierKey& key, const obs::RequestContext& ctx,
                           bool* stale_out) {
  AW4A_SPAN(ctx, "serving.cache.fetch");
  if (stale_out != nullptr) *stale_out = false;
  Shard& shard = shard_of(key);
  const std::lock_guard lock(shard.mutex);
  Resident* resident = shard.lru.touch(key);
  if (resident == nullptr) {
    ++shard.counters.misses;
    return nullptr;
  }
  ++shard.counters.hits;
  if (resident->stale) {
    ++shard.counters.stale_hits;
    if (stale_out != nullptr) *stale_out = true;
  }
  return resident->ladder;
}

void TierCache::admit_locked(Shard& shard, const TierKey& key, LadderPtr ladder) {
  // Charge at least one byte so a pathological zero-cost ladder still
  // participates in eviction accounting.
  const Bytes cost = std::max<Bytes>(ladder->cost_bytes, 1);
  if (cost > shard_capacity_) {
    ++shard.counters.admission_rejects;
    return;
  }
  while (shard.lru.total_cost() + cost > shard_capacity_ && !shard.lru.empty()) {
    shard.lru.evict_lru();
    ++shard.counters.evictions;
  }
  shard.lru.insert(key, Resident{std::move(ladder)}, cost);
  ++shard.counters.inserts;
}

bool TierCache::insert(const TierKey& key, LadderPtr ladder, const obs::RequestContext& ctx) {
  AW4A_SPAN(ctx, "serving.cache.insert");
  AW4A_EXPECTS(ladder != nullptr && !ladder->tiers.empty());
  Shard& shard = shard_of(key);
  const std::lock_guard lock(shard.mutex);
  if (shard.lru.peek(key) != nullptr) return false;  // lost the build race
  admit_locked(shard, key, std::move(ladder));
  return true;
}

bool TierCache::replace(const TierKey& key, LadderPtr ladder, const obs::RequestContext& ctx) {
  AW4A_SPAN(ctx, "serving.cache.insert");
  AW4A_EXPECTS(ladder != nullptr && !ladder->tiers.empty());
  Shard& shard = shard_of(key);
  const std::lock_guard lock(shard.mutex);
  // Drop the (typically stale) resident silently: a refresh landing is not
  // an invalidation event, the entry is simply renewed.
  shard.lru.erase(key);
  admit_locked(shard, key, std::move(ladder));
  return true;
}

std::size_t TierCache::mark_stale_site(std::uint64_t site_id) {
  std::size_t marked = 0;
  for (Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    std::size_t in_shard = 0;
    shard.lru.for_each([&](const TierKey& key, Resident& resident) {
      if (key.site_id == site_id && !resident.stale) {
        resident.stale = true;
        ++in_shard;
      }
    });
    shard.counters.stale_marks += in_shard;
    marked += in_shard;
  }
  return marked;
}

std::vector<TierCacheStats> TierCache::shard_stats() const {
  std::vector<TierCacheStats> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    const std::lock_guard lock(shard.mutex);
    TierCacheStats stats = shard.counters;
    stats.resident_entries = shard.lru.size();
    stats.resident_bytes = shard.lru.total_cost();
    out.push_back(stats);
  }
  return out;
}

TierCacheStats TierCache::stats() const {
  TierCacheStats total;
  for (const TierCacheStats& shard : shard_stats()) total += shard;
  return total;
}

}  // namespace aw4a::serving
