// OriginServer: a multi-site AW4A origin in front of the single-page
// serving core (core/server.h).
//
// OriginServer hosts a corpus of sites behind Host-header routing and builds
// each site's ladder lazily — on the first data-saving request — through a
// sharded TierCache and a SingleFlight group, so a popular site is built
// once and served from cache while an unpopular one costs nothing until
// asked for savings.
//
// Request flow (handle(), thread-safe, never throws):
//   non-GET                     -> 405
//   GET /aw4a/stats             -> metrics snapshot as JSON (any/no Host)
//   no Host header              -> 400 (multi-site routing needs one)
//   GET /aw4a/trace (known Host)-> serve the site's page once with tracing
//                                  on, return the span dump as JSON
//   unknown Host / unknown path -> 404
//   Save-Data absent/off        -> the site's original page, no build
//   Save-Data: on               -> ladder via cache + single-flight, then
//                                  the Fig. 6 decision (core::answer_page_request)
//
// Observability: every request runs under an obs::RequestContext carrying
// the site's deadline and a span sink wired to this origin's
// per-stage histograms (the /aw4a/stats "stage_breakdown" block). A
// single-flight build leader inherits the *union* of the waiters' deadlines
// through the flight's shared deadline, so one slow joiner never times out
// a build that someone else still has budget for.
//
// Failure containment: a failed ladder build serves the degraded original
// for that request and is NOT cached (the next request builds afresh); a
// failed build leader ("serving.build.leader") fails its whole flight once,
// degraded. The cache itself never throws.
//
// Overload safety (the build plane, DESIGN.md §11): ladder builds run
// through a bounded serving::BuildQueue, never inline in the request
// thread. When the queue saturates, the flight is SHED: admission returns
// a nullptr ladder that single-flight hands to every member and nothing
// caches, and each request gets the degraded original at once (200,
// `AW4A-Tier: none`, `AW4A-Degraded`, plus a `Retry-After` hint) — no 5xx,
// no unbounded wait, no exception. invalidate_host is stale-while-revalidate:
// resident ladders are flagged stale and keep serving at cache speed while
// detached rebuilds are re-admitted at a bounded rate (at most half the
// queue), so a mass invalidation cannot stampede the build plane.
//
// There is one configuration: cache, single-flight, queue and asset store
// are always in the path. Each only saves work — a page answer equals the
// one answer_page_request gives over a fresh Aw4aPipeline::build_tiers
// ladder, or is a declared degraded/shed answer. For the asset store this
// holds on every hit: it shares a memo only between bit-identical content
// under one enumeration recipe, so an adopted ladder is the one a local
// enumeration would have measured.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/server.h"
#include "serving/asset_store.h"
#include "serving/build_queue.h"
#include "serving/metrics.h"
#include "serving/single_flight.h"
#include "serving/tier_cache.h"

namespace aw4a::serving {

/// One hosted site: its routing key, content, and serving configuration.
struct OriginSite {
  std::string host;  ///< matched against the request's Host (case-insensitive)
  web::WebPage page;
  core::DeveloperConfig config;
  /// Plan assumed for PAW decisions at this site.
  net::PlanType plan = net::PlanType::kDataOnly;
};

struct OriginOptions {
  TierCacheOptions cache;
  /// Monotonic seconds for deadlines, queue waits and build timing; null =
  /// steady_clock. Injectable so deadline tests don't sleep. The build queue
  /// runs on this clock too, so requests and queue share one timeline.
  std::function<double()> clock;
  /// Bounds and concurrency of the build plane.
  BuildQueueOptions build_queue;
  /// Capacity and sharding of the content-addressed store. The store can
  /// only save work, never change a request's outcome (exact hits adopt
  /// bit-identical families; any store failure falls back to local
  /// enumeration).
  AssetStoreOptions asset_store;
};

class OriginServer {
 public:
  static constexpr std::string_view kStatsPath = "/aw4a/stats";
  static constexpr std::string_view kTracePath = "/aw4a/trace";

  /// Hosts are normalized to lowercase and must be unique and non-empty.
  /// Construction builds nothing (ladders are lazy) and never throws on
  /// content problems — only on precondition violations (LogicError).
  explicit OriginServer(std::vector<OriginSite> sites, OriginOptions options = {});

  /// Answers one request. Safe to call from many threads; never throws.
  net::HttpResponse handle(const net::HttpRequest& request) const;

  /// Content push for one host, stale-while-revalidate: cached ladders are
  /// flagged stale (still served; rebuilds re-admitted at a bounded rate)
  /// and the count of flagged entries is returned. 0 for an unknown host.
  std::size_t invalidate_host(std::string_view host);

  MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  TierCacheStats cache_stats() const { return cache_.stats(); }
  SingleFlightStats single_flight_stats() const { return flight_.stats(); }
  AssetStoreStats asset_store_stats() const { return asset_store_.stats(); }
  BuildQueueStats build_queue_stats() const { return queue_.stats(); }

  /// The /aw4a/stats body: one JSON object over metrics(), cache_stats()
  /// and single_flight_stats().
  std::string stats_json() const;

 private:
  struct Site {
    OriginSite origin;
    std::uint64_t id = 0;           ///< index into sites_
    std::uint64_t fingerprint = 0;  ///< config_fingerprint(origin.config)
  };

  /// Where a page answer's ladder came from (kNone for original/degraded
  /// answers) — drives the ladder_cached/stale/built counters.
  enum class LadderSource { kNone, kCached, kStale, kBuilt };
  struct PageAnswer {
    core::ServeOutcome outcome;
    LadderSource source = LadderSource::kNone;
    bool shed = false;  ///< degraded by queue admission, not by failure
  };

  net::HttpResponse handle_checked(const net::HttpRequest& request) const;
  net::HttpResponse trace_response(const net::HttpRequest& request, const Site& site) const;
  /// The per-request context: origin clock, the site config's deadline, span
  /// sink wired to metrics_.stage_breakdown.
  obs::RequestContext request_context(const Site& site) const;
  /// The Fig. 6 page answer for one site (original fast path, or ladder via
  /// cache + single-flight + queue). Bumps no served_* counters —
  /// handle_checked does, so the trace endpoint can reuse this without
  /// skewing them.
  PageAnswer serve_page(const Site& site, const net::HttpRequest& request,
                        const obs::RequestContext& ctx) const;
  /// Cache -> single-flight -> queue admission -> build. Returns nullptr
  /// when the queue shed the flight; throws aw4a::Error when the build (or
  /// its flight leader) failed. The caller degrades per request.
  LadderPtr ladder_for(const Site& site, const obs::RequestContext& ctx,
                       LadderSource* source) const;
  /// The queue-admission gate in front of build_ladder: the build runs on a
  /// pool worker under admission control (nullptr on shed).
  LadderPtr run_build(const Site& site, const obs::RequestContext& ctx) const;
  /// One real pipeline build, metered. Throws on failure.
  LadderPtr build_ladder(const Site& site, const obs::RequestContext& ctx) const;
  /// Queues a detached stale-entry rebuild unless one is already pending for
  /// `key` or the queue is past its refresh watermark (half full).
  void maybe_queue_refresh(const Site& site, const TierKey& key) const;

  std::vector<Site> sites_;
  std::unordered_map<std::string, std::size_t> by_host_;
  std::function<double()> clock_;
  mutable TierCache cache_;
  /// The content-addressed layer under the cache. Shared by every site's
  /// builds: that sharing *is* the feature.
  mutable AssetStore asset_store_;
  mutable SingleFlight<TierKey, TierLadder, TierKeyHash> flight_;
  mutable ServingMetrics metrics_;
  /// Per-site save-data request counts: the queue's popularity ordering.
  mutable std::unique_ptr<std::atomic<std::uint64_t>[]> popularity_;
  /// Keys with a detached refresh in flight (dedupe: one rebuild per key).
  mutable std::mutex refresh_mutex_;
  mutable std::unordered_set<TierKey, TierKeyHash> refresh_pending_;
  /// Declared last on purpose: destroyed first, so draining queue jobs can
  /// still touch the cache, metrics and sites they reference.
  mutable BuildQueue queue_;
};

}  // namespace aw4a::serving
