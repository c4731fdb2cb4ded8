// AssetStore: the content-addressed layer *under* the tier cache.
//
// TierCache keys on page identity (site, config, plan), so 50 sites sharing
// one CDN logo build 50 identical VariantLadders. The asset store keys built
// ladder families on asset *content* instead: an exact fingerprint over the
// decoded raster plus encode-relevant metadata, and — when the exact probe
// misses — a perceptual signature (8x8 average-hash bucket, confirmed by a
// luma-thumbprint SSIM above a fixed threshold) that collapses
// visually identical assets served under different identities.
//
// Placement: the store implements imaging::AssetLadderSource, and
// OriginServer threads it through the pipeline's LadderCache. A ladder build
// consults the store per image before encoding anything; a hit adopts the
// shared memo (bit-identical results for exact hits — enumeration is a
// deterministic function of the fingerprinted inputs), a miss warms the
// ladder once (VariantLadder::warm: the families the default solver reads),
// under a SingleFlight keyed by the *content* key, so two cold sites sharing
// assets do the encode work once even when their requests race.
//
// Concurrency: sharded like TierCache (mutex + byte-budget LRU + per-shard
// counters per shard). The shard index is derived from the perceptual hash
// + recipe, NOT the exact content hash, so near-duplicates land in the same
// shard and the semantic probe never needs cross-shard locks. Entries hand
// out shared_ptr<const VariantMemo>: eviction never invalidates a memo a
// build is still adopting.
//
// Failure containment: acquire() never throws. Any error during fingerprint,
// probe, or the warming build (injected codec fault, exhausted deadline)
// returns nullptr and the caller falls back to plain lazy enumeration under
// the pipeline's existing retry/degradation machinery — the store can only
// ever *save* work, never change outcomes.
//
// Counter partition (pinned in tests): lookups == exact_hits +
// semantic_hits + misses, summed over shards.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "imaging/fingerprint.h"
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
  std::uint64_t semantic_hits = 0;   ///< near-duplicate reuse (thumbprint SSIM)
  std::uint64_t misses = 0;          ///< neither probe matched
  std::uint64_t probes = 0;          ///< semantic candidate comparisons scored
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

  /// Thumbprint SSIM at or above which a same-bucket, same-shape candidate
  /// counts as the same asset. High on purpose: a false share substitutes
  /// one asset's measured curve for another's.
  static constexpr double kSemanticMinSsim = 0.98;
  /// Max candidates scored per probe (bounds worst-case bucket scans).
  static constexpr std::size_t kSemanticProbeLimit = 8;
  /// Luma thumbprint side length stored per entry for semantic scoring.
  static constexpr int kThumbprintDim = 32;

  explicit AssetStore(AssetStoreOptions options = {});

  /// The two-stage lookup + single-flight warm described above. Emits
  /// "serving.asset.fingerprint" / "serving.asset.probe" /
  /// "serving.asset.build" spans; never throws (nullptr on any failure).
  MemoPtr acquire(const std::shared_ptr<const imaging::SourceImage>& asset,
                  const imaging::LadderOptions& options,
                  const obs::RequestContext& ctx) override;

  AssetStoreStats stats() const;  ///< summed over shards
  SingleFlightStats flight_stats() const { return flight_.stats(); }
  std::size_t in_flight() const { return flight_.in_flight(); }
  std::size_t shard_count() const { return shards_.size(); }
  Bytes capacity_bytes() const { return shard_capacity_ * shards_.size(); }

 private:
  struct Entry {
    MemoPtr memo;
    imaging::PlaneF thumbprint;  ///< scored against probes in this bucket
    std::uint64_t ahash = 0;     ///< which semantic bucket holds this key
  };
  struct Shard {
    mutable std::mutex mutex;
    LruMap<AssetKey, Entry, AssetKeyHash> lru;
    /// Perceptual bucket -> resident keys; maintained by insert/evict so a
    /// probe touches exactly the co-bucketed candidates.
    std::unordered_map<std::uint64_t, std::vector<AssetKey>> by_ahash;
    AssetStoreStats counters;  // guarded by mutex; gauges filled at snapshot
  };

  Shard& shard_of(std::uint64_t ahash, std::uint64_t recipe);
  /// Inserts under the shard lock, evicting LRU entries to fit and keeping
  /// by_ahash consistent. No-op when the key landed concurrently.
  void admit(Shard& shard, const AssetKey& key, std::uint64_t ahash,
             imaging::PlaneF thumbprint, const MemoPtr& memo);
  static Bytes entry_cost(const Entry& entry);

  AssetStoreOptions options_;
  Bytes shard_capacity_ = 0;
  std::deque<Shard> shards_;  // deque: Shard is immovable (mutex member)
  SingleFlight<AssetKey, imaging::VariantMemo, AssetKeyHash> flight_;
  std::atomic<std::uint64_t> build_failures_{0};
};

}  // namespace aw4a::serving
