#include "serving/origin.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>

#include "util/error.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace aw4a::serving {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

/// The Retry-After hint (seconds) attached to shed responses.
constexpr int kRetryAfterSeconds = 1;

/// The AW4A-Degraded reason of a shed answer.
const std::string kShedReason = "build queue saturated: request shed";

/// One timeline for TTLs, deadlines and queue expiry: the queue runs on the
/// origin's clock unless it was given its own.
BuildQueueOptions on_clock(BuildQueueOptions options, const std::function<double()>& clock) {
  if (!options.clock) options.clock = clock;
  return options;
}

/// Append-only JSON emitter — objects and scalar fields, nothing else.
/// Exactly what /aw4a/stats needs, without a JSON dependency.
class JsonWriter {
 public:
  void begin(const char* name = nullptr) {
    comma();
    if (name != nullptr) key(name);
    out_ += '{';
    fresh_ = true;
  }
  void end() {
    out_ += '}';
    fresh_ = false;
  }
  void field(const char* name, std::uint64_t value) {
    comma();
    key(name);
    out_ += std::to_string(value);
  }
  void field(const char* name, double value) {
    comma();
    key(name);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out_ += buf;
  }
  void field(const char* name, bool value) {
    comma();
    key(name);
    out_ += value ? "true" : "false";
  }
  /// Quoted string value. No escaping: callers only pass normalized
  /// hostnames and enum labels, never request-controlled text.
  void field(const char* name, const std::string& value) {
    comma();
    key(name);
    out_ += '"';
    out_ += value;
    out_ += '"';
  }
  /// Pre-rendered JSON (an array from TraceBuffer::to_json), verbatim.
  void raw_field(const char* name, const std::string& json) {
    comma();
    key(name);
    out_ += json;
  }
  std::string take() { return std::move(out_); }

 private:
  void key(const char* name) {
    out_ += '"';
    out_ += name;
    out_ += "\":";
  }
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

void histogram_json(JsonWriter& json, const char* name, const HistogramSnapshot& h) {
  json.begin(name);
  json.field("count", h.count);
  json.field("mean", h.mean);
  json.field("p50", h.p50);
  json.field("p90", h.p90);
  json.field("p99", h.p99);
  json.field("max", h.max);
  json.end();
}

/// A page-less answer: status line and headers, Content-Length 0.
net::HttpResponse bare_response(int status, const char* reason,
                                std::vector<net::HttpHeader> headers = {}) {
  net::HttpResponse response;
  response.status = status;
  response.reason = reason;
  response.headers = std::move(headers);
  return response;
}

/// A JSON answer that caches must not keep (stats and trace dumps).
net::HttpResponse json_response(std::string body) {
  net::HttpResponse response = bare_response(200, "OK", {{"Content-Type", "application/json"},
                                                         {"Cache-Control", "no-store"}});
  response.content_length = body.size();
  response.body = std::move(body);
  return response;
}

const char* served_label(core::ServeOutcome::Served served) {
  switch (served) {
    case core::ServeOutcome::Served::kOriginal: return "original";
    case core::ServeOutcome::Served::kPawTier: return "paw_tier";
    case core::ServeOutcome::Served::kPreferenceTier: return "preference_tier";
    case core::ServeOutcome::Served::kDegraded: return "degraded";
  }
  return "unknown";
}

}  // namespace

OriginServer::OriginServer(std::vector<OriginSite> sites, OriginOptions options)
    : clock_(options.clock ? std::move(options.clock) : std::function<double()>(steady_seconds)),
      cache_(options.cache),
      asset_store_(std::move(options.asset_store)),
      queue_(on_clock(std::move(options.build_queue), clock_)) {
  sites_.reserve(sites.size());
  for (OriginSite& origin : sites) {
    origin.host = lower(origin.host);
    AW4A_EXPECTS(!origin.host.empty());
    Site site;
    site.id = sites_.size();
    site.fingerprint = config_fingerprint(origin.config);
    site.origin = std::move(origin);
    const bool unique = by_host_.emplace(site.origin.host, site.id).second;
    AW4A_EXPECTS(unique);
    sites_.push_back(std::move(site));
  }
  popularity_ = std::make_unique<std::atomic<std::uint64_t>[]>(sites_.size());
}

net::HttpResponse OriginServer::handle(const net::HttpRequest& request) const {
  bump(metrics_.requests_total);
  try {
    return handle_checked(request);
  } catch (const std::exception& e) {
    // Nothing below is expected to reach here (build failures degrade in
    // handle_checked); this is the "no request crashes the origin" backstop.
    bump(metrics_.internal_errors);
    const std::string what = e.what();
    return bare_response(500, "Internal Server Error",
                         {{"AW4A-Error", what.substr(0, what.find('\n'))}});
  }
}

net::HttpResponse OriginServer::handle_checked(const net::HttpRequest& request) const {
  if (request.method != "GET") {
    bump(metrics_.bad_method);
    return bare_response(405, "Method Not Allowed", {{"Allow", "GET"}});
  }
  if (request.path == kStatsPath) {
    bump(metrics_.stats_requests);
    return json_response(stats_json());
  }
  const auto host = request.host();
  if (!host.has_value()) {
    bump(metrics_.bad_request);
    return bare_response(400, "Bad Request",
                         {{"AW4A-Error", "multi-site origin requires a Host header"}});
  }
  const auto routed = by_host_.find(*host);
  if (routed != by_host_.end() && request.path == kTracePath) {
    bump(metrics_.trace_requests);
    return trace_response(request, sites_[routed->second]);
  }
  if (routed == by_host_.end() || !core::known_page_path(request.path)) {
    bump(metrics_.not_found);
    return bare_response(404, "Not Found");
  }
  const Site& site = sites_[routed->second];

  const PageAnswer answer = serve_page(site, request, request_context(site));
  switch (answer.outcome.served) {
    case core::ServeOutcome::Served::kOriginal: bump(metrics_.served_original); break;
    case core::ServeOutcome::Served::kPawTier: bump(metrics_.served_paw_tier); break;
    case core::ServeOutcome::Served::kPreferenceTier:
      bump(metrics_.served_preference_tier);
      break;
    case core::ServeOutcome::Served::kDegraded:
      bump(answer.shed ? metrics_.served_shed_degraded : metrics_.served_degraded);
      break;
  }
  // Source counters only for tier answers, keeping the partition exact:
  // paw_tier + preference_tier == cached + stale + built. (A ladder can be
  // fetched and the decision still serve the original, e.g. zero savings.)
  if (answer.outcome.served == core::ServeOutcome::Served::kPawTier ||
      answer.outcome.served == core::ServeOutcome::Served::kPreferenceTier) {
    switch (answer.source) {
      case LadderSource::kNone: break;
      case LadderSource::kCached: bump(metrics_.ladder_cached); break;
      case LadderSource::kStale: bump(metrics_.ladder_stale); break;
      case LadderSource::kBuilt: bump(metrics_.ladder_built); break;
    }
    // Second exact partition over the same answers: which *rung kind* the
    // served tier was built from (image ladder vs DESIGN.md §14 ultra tiers).
    switch (answer.outcome.tier_kind) {
      case core::TierKind::kImage: bump(metrics_.served_kind_image); break;
      case core::TierKind::kTextOnly: bump(metrics_.served_kind_text_only); break;
      case core::TierKind::kMarkupRewrite:
        bump(metrics_.served_kind_markup_rewrite);
        break;
    }
  }
  metrics_.served_page_bytes.record(
      static_cast<double>(answer.outcome.response.content_length));
  return answer.outcome.response;
}

obs::RequestContext OriginServer::request_context(const Site& site) const {
  obs::RequestContext ctx =
      obs::RequestContext().with_clock(clock_).with_sink(&metrics_.stage_breakdown);
  const core::DeveloperConfig& config = site.origin.config;
  if (config.stage2_deadline_seconds >= 0.0) {
    ctx = ctx.with_deadline_after(config.stage2_deadline_seconds);
  }
  return ctx;
}

OriginServer::PageAnswer OriginServer::serve_page(const Site& site,
                                                  const net::HttpRequest& request,
                                                  const obs::RequestContext& ctx) const {
  if (!request.save_data()) {
    // Laziness is the point: the original needs no ladder, so a site that
    // never sees a data-saving request never pays for a build.
    return {core::answer_page_request(site.origin.page, {}, "", site.origin.plan, request),
            LadderSource::kNone, false};
  }
  popularity_[site.id].fetch_add(1, std::memory_order_relaxed);
  LadderPtr ladder;
  LadderSource source = LadderSource::kNone;
  std::string degraded_reason;
  bool shed = false;
  try {
    ladder = ladder_for(site, ctx, &source);
    // A null ladder is a shed: admission refused the build, so degrade now,
    // at no build-plane cost (the whole point of shedding).
    shed = ladder == nullptr;
  } catch (const Error& e) {
    degraded_reason = e.what();
  }
  if (ladder == nullptr) source = LadderSource::kNone;
  PageAnswer answer{
      core::answer_page_request(
          site.origin.page,
          ladder ? std::span<const core::Tier>(ladder->tiers) : std::span<const core::Tier>{},
          shed ? kShedReason : degraded_reason, site.origin.plan, request),
      source, shed};
  if (shed) {
    answer.outcome.response.headers.push_back(
        {"Retry-After", std::to_string(kRetryAfterSeconds)});
  }
  return answer;
}

LadderPtr OriginServer::ladder_for(const Site& site, const obs::RequestContext& ctx,
                                   LadderSource* source) const {
  const TierKey key{site.id, site.fingerprint, site.origin.plan};
  *source = LadderSource::kBuilt;
  try {
    bool stale = false;
    if (LadderPtr resident = cache_.fetch(key, clock_(), ctx, &stale)) {
      if (stale) {
        // Stale-while-revalidate: answer at cache speed from the old
        // ladder; the rebuild rides the queue behind this response.
        maybe_queue_refresh(site, key);
        *source = LadderSource::kStale;
      } else {
        *source = LadderSource::kCached;
      }
      return resident;
    }
  } catch (const TransientError&) {
    // Shard poisoned: serve around the cache rather than failing the
    // request. The build is not shared, but the user still gets a tier.
    bump(metrics_.cache_bypasses);
    return run_build(site, ctx);
  }
  const auto build_and_admit = [&](const obs::RequestContext& build_ctx) -> LadderPtr {
    // Double-check on entry: between our miss and winning the flight,
    // another build may have landed. This is what makes "one build per key"
    // exact instead of merely likely.
    try {
      if (LadderPtr resident = cache_.fetch(key, clock_(), build_ctx)) return resident;
    } catch (const TransientError&) {
      bump(metrics_.cache_bypasses);
      return run_build(site, build_ctx);
    }
    LadderPtr built = run_build(site, build_ctx);
    if (built == nullptr) return built;  // shed: nothing to cache
    try {
      cache_.insert(key, built, clock_(), build_ctx);
    } catch (const TransientError&) {
      bump(metrics_.cache_bypasses);
    }
    return built;
  };
  // The leader builds under the flight's live deadline union (joiners
  // CAS-max their own deadlines in), not just its own budget. Admission
  // happens inside the flight: joiners of an already-admitted build
  // piggyback on it, and a shed hands the whole flight its nullptr at once,
  // sending every member down the degraded path.
  return flight_.run(
      key,
      [&](const std::atomic<double>& shared_deadline) {
        return build_and_admit(ctx.with_shared_deadline(&shared_deadline));
      },
      ctx.deadline_at());
}

LadderPtr OriginServer::run_build(const Site& site, const obs::RequestContext& ctx) const {
  const std::uint64_t popularity = popularity_[site.id].load(std::memory_order_relaxed);
  // Capture by reference is safe: run() blocks this thread until the queued
  // build completed (or returns nullptr before it ever runs).
  return queue_.run(popularity, ctx, [&] { return build_ladder(site, ctx); });
}

void OriginServer::maybe_queue_refresh(const Site& site, const TierKey& key) const {
  {
    const std::lock_guard lock(refresh_mutex_);
    if (!refresh_pending_.insert(key).second) return;  // rebuild already queued
  }
  const auto abandon = [&] {
    bump(metrics_.stale_refresh_sheds);
    const std::lock_guard lock(refresh_mutex_);
    refresh_pending_.erase(key);
  };
  // Bounded re-admission: refreshes only use the queue's spare half, so a
  // mass invalidation competes with at most half the build plane and cold
  // sites always have headroom. Shed refreshes cost nothing — the stale
  // ladder keeps serving, and the next stale hit retries.
  if (queue_.depth() * 2 >= queue_.capacity()) {
    abandon();
    return;
  }
  const obs::RequestContext refresh_ctx = request_context(site);
  const bool admitted = queue_.submit_detached(
      popularity_[site.id].load(std::memory_order_relaxed), refresh_ctx,
      [this, &site, refresh_ctx] { return build_ladder(site, refresh_ctx); },
      [this, key](LadderPtr built) {
        if (built != nullptr) {
          try {
            cache_.replace(key, built, clock_());
          } catch (const TransientError&) {
            bump(metrics_.cache_bypasses);
          }
        }
        const std::lock_guard lock(refresh_mutex_);
        refresh_pending_.erase(key);
      });
  if (admitted) {
    bump(metrics_.stale_refreshes_queued);
  } else {
    abandon();
  }
}

LadderPtr OriginServer::build_ladder(const Site& site, const obs::RequestContext& ctx) const {
  bump(metrics_.builds_started);
  const double started = clock_();
  try {
    AW4A_FAULT_POINT("serving.build.leader");
    AW4A_SPAN(ctx, "serving.build");
    auto ladder = std::make_shared<TierLadder>();
    // The deadline rides in on the context (request_context), so the site
    // config is used as-is.
    ladder->tiers = core::Aw4aPipeline(site.origin.config)
                        .build_tiers(site.origin.page, ctx, &asset_store_);
    for (const core::Tier& tier : ladder->tiers) ladder->cost_bytes += tier.result.result_bytes;
    ladder->build_seconds = clock_() - started;
    metrics_.build_seconds.record(ladder->build_seconds);
    return ladder;
  } catch (...) {
    bump(metrics_.builds_failed);
    throw;
  }
}

net::HttpResponse OriginServer::trace_response(const net::HttpRequest& request,
                                               const Site& site) const {
  // Serve the site's page once exactly as a page request with these headers
  // would be served — same cache, single-flight, and degradation paths —
  // with a trace buffer attached, and return the span dump instead of the
  // page. Only trace_requests is bumped (handle_checked already did): the
  // served_* counters and page-byte histogram keep meaning "real page
  // answers", preserving the stats partition invariant.
  obs::TraceBuffer buffer;
  const obs::RequestContext ctx = request_context(site).with_trace(&buffer);
  net::HttpRequest probe = request;
  probe.path = "/";
  const PageAnswer answer = serve_page(site, probe, ctx);

  JsonWriter json;
  json.begin();
  json.field("host", site.origin.host);
  json.field("save_data", probe.save_data());
  json.field("served", std::string(served_label(answer.outcome.served)));
  json.field("shed", answer.shed);
  json.field("span_count", static_cast<std::uint64_t>(buffer.size()));
  json.raw_field("spans", buffer.to_json());
  json.end();

  return json_response(json.take());
}

std::size_t OriginServer::invalidate_host(std::string_view host) {
  const auto routed = by_host_.find(lower(host));
  if (routed == by_host_.end()) return 0;
  // A content push must not turn into a cold-cache stampede: flag the
  // entries stale (they keep serving) and let stale hits re-admit rebuilds
  // at the queue's bounded refresh rate.
  return cache_.mark_stale_site(sites_[routed->second].id);
}

std::string OriginServer::stats_json() const {
  const MetricsSnapshot m = metrics_.snapshot();
  const TierCacheStats c = cache_.stats();
  const SingleFlightStats f = flight_.stats();
  JsonWriter json;
  json.begin();
  json.field("sites", static_cast<std::uint64_t>(sites_.size()));
  json.begin("requests");
  json.field("total", m.requests_total);
  json.field("original", m.served_original);
  json.field("paw_tier", m.served_paw_tier);
  json.field("preference_tier", m.served_preference_tier);
  json.field("degraded", m.served_degraded);
  json.field("shed_degraded", m.served_shed_degraded);
  json.field("stats", m.stats_requests);
  json.field("trace", m.trace_requests);
  json.field("not_found", m.not_found);
  json.field("bad_method", m.bad_method);
  json.field("bad_request", m.bad_request);
  json.field("internal_errors", m.internal_errors);
  json.end();
  json.begin("cache");
  json.field("shards", static_cast<std::uint64_t>(cache_.shard_count()));
  json.field("capacity_bytes", cache_.capacity_bytes());
  json.field("hits", c.hits);
  json.field("misses", c.misses);
  json.field("hit_rate", c.hit_rate());
  json.field("inserts", c.inserts);
  json.field("evictions", c.evictions);
  json.field("expirations", c.expirations);
  json.field("admission_rejects", c.admission_rejects);
  json.field("stale_marks", c.stale_marks);
  json.field("stale_hits", c.stale_hits);
  json.field("resident_entries", c.resident_entries);
  json.field("resident_bytes", c.resident_bytes);
  json.field("bypasses", m.cache_bypasses);
  json.end();
  json.begin("ladder_sources");
  json.field("cached", m.ladder_cached);
  json.field("stale", m.ladder_stale);
  json.field("built", m.ladder_built);
  json.end();
  json.begin("tier_kinds");
  json.field("image", m.served_kind_image);
  json.field("text_only", m.served_kind_text_only);
  json.field("markup_rewrite", m.served_kind_markup_rewrite);
  json.end();
  json.begin("builds");
  json.field("started", m.builds_started);
  json.field("failed", m.builds_failed);
  json.field("leads", f.leads);
  json.field("joins", f.joins);
  histogram_json(json, "latency_seconds", m.build_seconds);
  json.end();
  {
    // The build plane: admission, shedding, and time-in-queue.
    const BuildQueueStats q = queue_.stats();
    json.begin("build_queue");
    json.field("capacity", static_cast<std::uint64_t>(queue_.capacity()));
    json.field("workers", static_cast<std::uint64_t>(queue_.workers()));
    json.field("admitted", q.admitted);
    json.field("shed", q.shed);
    json.field("expired", q.expired);
    json.field("completed", q.completed);
    json.field("failed", q.failed);
    json.field("depth", q.depth);
    json.field("running", q.running);
    json.field("stale_refreshes_queued", m.stale_refreshes_queued);
    json.field("stale_refresh_sheds", m.stale_refresh_sheds);
    histogram_json(json, "queue_wait_seconds", q.queue_wait_seconds);
    json.end();
  }
  {
    // The content-addressed layer under the cache. Partition invariant
    // mirrored by the tests: lookups == exact_hits + misses.
    const AssetStoreStats a = asset_store_.stats();
    const SingleFlightStats af = asset_store_.flight_stats();
    json.begin("asset_store");
    json.field("shards", static_cast<std::uint64_t>(asset_store_.shard_count()));
    json.field("capacity_bytes", asset_store_.capacity_bytes());
    json.field("entries", a.resident_entries);
    json.field("bytes", a.resident_bytes);
    json.field("lookups", a.lookups);
    json.field("exact_hits", a.exact_hits);
    json.field("misses", a.misses);
    json.field("inserts", a.inserts);
    json.field("evictions", a.evictions);
    json.field("build_failures", a.build_failures);
    json.field("flight_leads", af.leads);
    json.field("flight_joins", af.joins);
    json.end();
  }
  json.begin("stage_breakdown");
  histogram_json(json, "stage1_seconds", m.stage1_seconds);
  histogram_json(json, "stage2_seconds", m.stage2_seconds);
  histogram_json(json, "ssim_seconds", m.ssim_seconds);
  histogram_json(json, "encode_seconds", m.encode_seconds);
  json.end();
  // The shared worker pool the build-queue runners run on. Counters are
  // process-wide (one pool serves every origin), which is what an operator
  // debugging "why is this box slow" wants to see anyway.
  {
    const util::ThreadPool::Stats p = util::ThreadPool::shared().stats();
    json.begin("thread_pool");
    json.field("threads", static_cast<std::uint64_t>(p.threads));
    json.field("tasks_submitted", p.submitted);
    json.field("tasks_executed", p.executed);
    json.end();
  }
  histogram_json(json, "served_page_bytes", m.served_page_bytes);
  json.end();
  return json.take();
}

}  // namespace aw4a::serving
