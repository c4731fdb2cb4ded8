// AssetStore: the content-addressed layer *under* the tier cache.
//
// TierCache keys on page identity (site, config, plan), so 50 sites sharing
// one CDN logo build 50 identical VariantLadders. The asset store keys built
// ladder families on asset *content* instead: an exact fingerprint over the
// decoded raster plus encode-relevant metadata, paired with the enumeration
// recipe. One stage: the exact key hits the LRU, or the ladder is warmed.
// Only bit-identical content ever shares a memo, so every hit hands back
// exactly the measurements a local enumeration would produce.
//
// Placement: the store implements imaging::AssetLadderSource, and
// OriginServer threads it through the pipeline's LadderCache. A ladder build
// consults the store per image before encoding anything; a hit adopts the
// shared memo (bit-identical results — enumeration is a deterministic
// function of the fingerprinted inputs), a miss warms the ladder once
// (VariantLadder::warm: the families the default solver reads), under a
// SingleFlight keyed by the *content* key, so two cold sites sharing assets
// do the encode work once even when their requests race.
//
// Concurrency: sharded like TierCache (mutex + byte-budget LRU + per-shard
// counters per shard), with the shard index derived from the exact key.
// Entries hand out shared_ptr<const VariantMemo>: eviction never invalidates
// a memo a build is still adopting.
//
// Failure containment: acquire() never throws. Any error during fingerprint
// or the warming build (injected codec fault, exhausted deadline) returns
// nullptr and the caller falls back to plain lazy enumeration under the
// pipeline's existing retry/degradation machinery — the store can only
// ever *save* work, never change outcomes.
//
// Counter partition (pinned in tests): lookups == exact_hits + misses,
// summed over shards.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "imaging/variants.h"
#include "obs/context.h"
#include "serving/single_flight.h"
#include "util/bytes.h"
#include "util/lru.h"

namespace aw4a::serving {

/// The store key: exact content fingerprint + "recipe" (asset shape +
/// LadderOptions fingerprints). Two identical rasters under different ladder
/// options or byte calibrations never share an entry.
struct AssetKey {
  std::uint64_t content = 0;
  std::uint64_t recipe = 0;
  bool operator==(const AssetKey&) const = default;
};

struct AssetKeyHash {
  std::size_t operator()(const AssetKey& key) const;
};

struct AssetStoreStats {
  std::uint64_t lookups = 0;         ///< acquire() calls that reached the store
  std::uint64_t exact_hits = 0;      ///< fingerprint-identical reuse
  /// Always 0; kept only for originbench, which a benchmark PR will update.
  std::uint64_t semantic_hits = 0;
  std::uint64_t misses = 0;          ///< the exact key was not resident
  /// Always 0; kept only for originbench, which a benchmark PR will update.
  std::uint64_t probes = 0;
  std::uint64_t inserts = 0;         ///< warmed memos admitted
  std::uint64_t evictions = 0;       ///< capacity evictions
  std::uint64_t build_failures = 0;  ///< warming builds that errored (nullptr)
  std::uint64_t resident_entries = 0;  ///< gauge at snapshot time
  Bytes resident_bytes = 0;            ///< gauge at snapshot time

  AssetStoreStats& operator+=(const AssetStoreStats& other);
};

struct AssetStoreOptions {
  /// Total memo budget, split evenly across shards. Memos are small (measured
  /// variants, no rasters or payloads), so the default holds a large corpus.
  Bytes capacity_bytes = 16 * kMB;
  /// Rounded up to a power of two. 1 is valid (a single mutexed store).
  std::size_t shards = 8;
};

class AssetStore : public imaging::AssetLadderSource {
 public:
  using MemoPtr = std::shared_ptr<const imaging::VariantMemo>;

  explicit AssetStore(AssetStoreOptions options = {});

  /// The exact lookup + single-flight warm described above. Emits
  /// "serving.asset.fingerprint" / "serving.asset.build" spans; never
  /// throws (nullptr on any failure).
  MemoPtr acquire(const std::shared_ptr<const imaging::SourceImage>& asset,
                  const imaging::LadderOptions& options,
                  const obs::RequestContext& ctx) override;

  AssetStoreStats stats() const;  ///< summed over shards
  SingleFlightStats flight_stats() const { return flight_.stats(); }
  std::size_t in_flight() const { return flight_.in_flight(); }
  std::size_t shard_count() const { return shards_.size(); }
  Bytes capacity_bytes() const { return shard_capacity_ * shards_.size(); }

 private:
  struct Shard {
    mutable std::mutex mutex;
    LruMap<AssetKey, MemoPtr, AssetKeyHash> lru;
    AssetStoreStats counters;  // guarded by mutex; gauges filled at snapshot
  };

  Shard& shard_of(const AssetKey& key);
  /// Inserts under the shard lock, evicting LRU entries to fit. No-op when
  /// the key landed concurrently.
  void admit(Shard& shard, const AssetKey& key, const MemoPtr& memo);
  static Bytes entry_cost(const imaging::VariantMemo& memo);

  Bytes shard_capacity_ = 0;
  std::deque<Shard> shards_;  // deque: Shard is immovable (mutex member)
  SingleFlight<AssetKey, imaging::VariantMemo, AssetKeyHash> flight_;
  std::atomic<std::uint64_t> build_failures_{0};
};

}  // namespace aw4a::serving
