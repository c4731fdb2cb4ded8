// origin_bench: the AW4A origin benchmark, wire to wire.
//
// Every request is HTTP/1.1 bytes generated during set-up from --seed. A
// client turns them into an answer through the origin's public entry points
// only: net::parse_request -> serving::OriginServer::handle ->
// net::serialize. Three workloads stress different layers:
//
//   hot    closed loop, ladders all built in set-up: parse, route, tier-cache
//          fetch, the Fig. 6 decision and serialize. Nothing is built.
//   cold   closed loop, a fresh origin per pass over a 0%-duplication corpus:
//          every request is its site's first Save-Data request, so builds
//          (core solvers, QFS, imaging encode + SSIM) dominate.
//   mixed  open loop at a fixed arrival rate over a large 30%-duplication
//          corpus whose ladders do not all fit the tier cache, with a small
//          build plane and a content push every second: queue wait, shed
//          answers, single-flight joins, stale-while-revalidate and
//          asset-store hits all happen here.
//
// Every answer is checked afterwards against a reference oracle: the same
// site built with nothing cached (Aw4aPipeline::build_tiers) and answered by
// core::answer_page_request. Status, Content-Length and AW4A-Tier must agree;
// a declared shed or degraded answer (AW4A-Tier: none) is not a failure.
//
// --trace 1 runs the traffic twice, untraced then traced (stopwatches around
// parse and serialize in this file), times handle() per answer kind on one
// thread, replays a few sites through the core's public calls to split a
// cold build into its layers, and reads every serving stats counter. Nothing
// inside src/ is instrumented.
//
// Output: a full record (host stamp, every metric, sample counts) on one
// JSON line, then the result line: correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "core/paw.h"
#include "core/quality.h"
#include "core/server.h"
#include "core/ultra_low.h"
#include "dataset/corpus.h"
#include "dataset/countries.h"
#include "imaging/variants.h"
#include "net/http.h"
#include "serving/origin.h"
#include "util/rng.h"

#ifndef ORIGINBENCH_BUILD_TYPE
#define ORIGINBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace aw4a;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload definitions. BENCHMARK.json records the same numbers.
// ---------------------------------------------------------------------------

enum class HeaderMix {
  kHot,   ///< 50% Save-Data + country, 25% Save-Data + AW4A-Savings, 25% plain
  kCold,  ///< every request Save-Data: 2/3 country hint, 1/3 AW4A-Savings
};

struct WorkloadSpec {
  const char* name;
  std::size_t sites;
  double duplication;        ///< cross-site asset duplication of the corpus
  HeaderMix mix;
  double latency_limit_ms;   ///< goodput counts answers within this limit
  double rate_rps;           ///< open-loop arrival rate; 0 = closed loop
};

constexpr WorkloadSpec kHot{"hot", 12, 0.0, HeaderMix::kHot, 1.0, 0.0};
constexpr WorkloadSpec kCold{"cold", 128, 0.0, HeaderMix::kCold, 1000.0, 0.0};
constexpr WorkloadSpec kMixed{"mixed", 96, 0.3, HeaderMix::kHot, 500.0, 200.0};

constexpr int kMaxClients = 4;
constexpr int kSetupRepeats = 5;
/// A phase is cut into kWindows equal windows, then adjacent windows are
/// grouped until each group holds kGroupSamples answers (so its p99 has ten
/// samples beyond it). goodput and the latency percentiles are medians over
/// the groups, which keeps a burst of host interference from moving them.
constexpr int kWindows = 30;
constexpr std::uint64_t kGroupSamples = 1000;
constexpr std::size_t kHotPoolPerClient = 4096;
constexpr std::size_t kColdMaxPasses = 256;
constexpr int kMixedBuildWorkers = 2;       ///< build plane < generator threads
constexpr std::size_t kMixedQueueCapacity = 1;
constexpr double kMixedCacheShare = 1.5;    ///< tier cache bytes / corpus page bytes
constexpr std::size_t kMixedPushSites = 3;  ///< head sites invalidated per push
constexpr std::size_t kReplaySites = 8;     ///< sites replayed through core calls
constexpr int kProbeCalls = 2000;
constexpr auto kSpinWindow = std::chrono::microseconds(300);

/// Client threads, at most kMaxClients. Closed-loop clients are always busy,
/// so they leave one core to the harness and the OS (a preempted client
/// doubled the hot p99). The open-loop generator mostly sleeps and needs
/// more threads than the mixed build plane has slots, or it stalls.
int client_count(const WorkloadSpec& spec) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(spec.rate_rps > 0 ? hw : hw - 1, 1, kMaxClients);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t nanos(Clock::duration d) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---------------------------------------------------------------------------
// Log-linear nanosecond histogram: exact below 128 ns, then 64 buckets per
// octave (1.6% wide). Quantiles interpolate inside the bucket.
// ---------------------------------------------------------------------------
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++count_;
  }
  void record(Clock::duration d) { record(nanos(d)); }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  std::uint64_t count() const { return count_; }

  /// q-quantile in nanoseconds (0 when empty).
  double quantile_ns(double q) const {
    if (count_ == 0) return 0.0;
    const double target = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
    double cumulative = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cumulative + c >= target) {
        const auto [lo, width] = bounds(i);
        return lo + width * ((target - cumulative - 0.5) / c);
      }
      cumulative += c;
    }
    return 0.0;
  }
  double quantile_ms(double q) const { return quantile_ns(q) / 1e6; }
  double quantile_us(double q) const { return quantile_ns(q) / 1e3; }

 private:
  static constexpr std::size_t kBuckets = 128 + 57 * 64;

  static std::size_t index(std::uint64_t v) {
    if (v < 128) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - 6;
    return 128 + static_cast<std::size_t>(msb - 7) * 64 + static_cast<std::size_t>((v >> shift) - 64);
  }
  static std::pair<double, double> bounds(std::size_t i) {
    if (i < 128) return {static_cast<double>(i), 1.0};
    const std::size_t k = i - 128;
    const int shift = static_cast<int>(k / 64) + 1;
    const double width = std::ldexp(1.0, shift);
    return {static_cast<double>(k % 64 + 64) * width, width};
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// Corpus and wire requests.
// ---------------------------------------------------------------------------

/// Site i's configuration: DeveloperConfig defaults (QFS on), with one
/// quarter of the sites on the rANS entropy backend and another quarter
/// carrying both ultra-low tiers.
core::DeveloperConfig site_config(std::size_t i) {
  core::DeveloperConfig config;
  if (i % 4 == 1) config.entropy_backend = imaging::EntropyBackend::kRans;
  if (i % 4 == 2) config.ultra_low.text_only = config.ultra_low.markup_rewrite = true;
  return config;
}

std::vector<serving::OriginSite> make_sites(const WorkloadSpec& spec, std::uint64_t seed,
                                            std::size_t count) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{
      .seed = seed, .rich = true, .cross_site_duplication_rate = spec.duplication});
  Rng rng = Rng(seed).fork("sites");
  std::vector<serving::OriginSite> sites;
  sites.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes target = from_kb(rng.uniform(200.0, 300.0));
    const auto plan = net::kAllPlans[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    sites.push_back(serving::OriginSite{
        std::string(spec.name) + "-" + std::to_string(i) + ".example",
        gen.make_page(rng, target, gen.global_profile()), site_config(i), plan});
  }
  return sites;
}

/// One request's wire bytes plus the site it routes to (for the oracle).
struct WireRequest {
  std::string bytes;
  std::uint32_t site = 0;
};

/// Countries a geo hint is drawn from: those with price data, so every hint
/// has a PAW target (the three without one would degrade the answer).
const std::vector<const dataset::Country*>& hint_countries() {
  static const std::vector<const dataset::Country*> countries = dataset::countries_with_prices();
  return countries;
}

WireRequest make_request(Rng& rng, const std::string& host, std::uint32_t site, HeaderMix mix,
                         bool force_save_data = false) {
  net::HttpRequest request;
  request.headers.push_back({"Host", host});
  const double u = rng.uniform();
  const bool save_data = force_save_data || mix == HeaderMix::kCold || u < 0.75;
  const bool country = mix == HeaderMix::kCold ? u < 2.0 / 3.0 : u < 0.5;
  if (save_data) {
    request.headers.push_back({"Save-Data", "on"});
    if (country) {
      const auto& countries = hint_countries();
      const auto* pick = countries[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(countries.size()) - 1))];
      request.headers.push_back({"X-Geo-Country", std::string(pick->code)});
    } else {
      request.headers.push_back({"AW4A-Savings", std::to_string(rng.uniform_int(10, 90))});
    }
  }
  request.headers.push_back({"Accept", "text/html"});
  return {net::serialize(request), site};
}

// ---------------------------------------------------------------------------
// Answers: every distinct response a request index produced, with counts.
// ---------------------------------------------------------------------------

enum class Kind { kTier, kOriginal, kShed, kDegraded, kError };

struct Answer {
  int status = 0;
  Bytes content_length = 0;
  std::string tier;  ///< AW4A-Tier value ("" when absent)
  Kind kind = Kind::kError;
};

Answer summarize(std::string_view wire) {
  Answer answer;
  const auto response = net::parse_response(wire);
  if (!response) return answer;
  answer.status = response->status;
  if (const auto* length = response->header("Content-Length")) {
    answer.content_length = std::strtoull(length->c_str(), nullptr, 10);
  }
  if (const auto* tier = response->header("AW4A-Tier")) answer.tier = *tier;
  if (answer.status != 200) {
    answer.kind = Kind::kError;
  } else if (response->header("Retry-After") != nullptr) {
    answer.kind = Kind::kShed;
  } else if (answer.tier == "none" || response->header("AW4A-Degraded") != nullptr) {
    answer.kind = Kind::kDegraded;
  } else if (answer.tier == "original") {
    answer.kind = Kind::kOriginal;
  } else {
    answer.kind = Kind::kTier;
  }
  return answer;
}

bool good(const Answer& answer) {
  return answer.kind == Kind::kTier || answer.kind == Kind::kOriginal;
}

struct Distinct {
  std::string wire;
  Answer answer;
  std::uint64_t count = 0;
};

/// Per request index. Each index is only ever touched by one client at a
/// time (hot clients own disjoint pool slices; cold and mixed requests are
/// sent once), so no locking is needed.
struct Tally {
  std::vector<Distinct> seen;

  /// Counts one answer; returns its summary.
  const Answer& add(std::string&& wire) {
    for (Distinct& d : seen) {
      if (d.wire == wire) {
        ++d.count;
        return d.answer;
      }
    }
    Distinct d;
    d.answer = summarize(wire);
    d.wire = std::move(wire);
    d.count = 1;
    seen.push_back(std::move(d));
    return seen.back().answer;
  }
};

// ---------------------------------------------------------------------------
// One client exchange: wire bytes in, wire bytes out.
// ---------------------------------------------------------------------------

struct ClientStats {
  /// Wire-to-wire latency (from the due time in mixed), per window.
  std::vector<LatencyHistogram> latency = std::vector<LatencyHistogram>(kWindows);
  /// Answers neither shed nor degraded, within the latency limit, per window.
  std::array<std::uint64_t, kWindows> good{};
  LatencyHistogram lag;        ///< send time minus intended send time
  LatencyHistogram parse;      ///< traced only
  LatencyHistogram serialize;  ///< traced only

  void record(double elapsed, double seconds, std::uint64_t ns, bool good_in_limit) {
    const auto w = static_cast<std::size_t>(
        std::clamp(static_cast<int>(elapsed / seconds * kWindows), 0, kWindows - 1));
    latency[w].record(ns);
    good[w] += good_in_limit ? 1 : 0;
  }

  void merge(const ClientStats& other) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      latency[w].merge(other.latency[w]);
      good[w] += other.good[w];
    }
    lag.merge(other.lag);
    parse.merge(other.parse);
    serialize.merge(other.serialize);
  }
};

net::HttpResponse malformed_request() {
  net::HttpResponse response;
  response.status = 400;
  response.reason = "Bad Request";
  return response;
}

template <bool kTraced>
std::string exchange(const serving::OriginServer& origin, std::string_view wire,
                     ClientStats& stats) {
  Clock::time_point t0, t1, t2;
  if constexpr (kTraced) t0 = Clock::now();
  const std::optional<net::HttpRequest> request = net::parse_request(wire);
  if constexpr (kTraced) t1 = Clock::now();
  const net::HttpResponse response = request ? origin.handle(*request) : malformed_request();
  if constexpr (kTraced) t2 = Clock::now();
  std::string out = net::serialize(response);
  if constexpr (kTraced) {
    const Clock::time_point t3 = Clock::now();
    stats.parse.record(t1 - t0);
    stats.serialize.record(t3 - t2);
  }
  return out;
}

std::string exchange(const serving::OriginServer& origin, std::string_view wire,
                     ClientStats& stats, bool traced) {
  return traced ? exchange<true>(origin, wire, stats) : exchange<false>(origin, wire, stats);
}

// ---------------------------------------------------------------------------
// Serving-layer counters gathered from the origin(s) a traffic phase used.
// ---------------------------------------------------------------------------

struct LayerCounters {
  serving::TierCacheStats cache;
  serving::SingleFlightStats flight;
  serving::BuildQueueStats queue;
  std::vector<double> queue_wait_p50_s, queue_wait_p99_s;  ///< one per origin
  serving::AssetStoreStats asset;
  serving::MetricsSnapshot metrics;

  void add(const serving::OriginServer& origin) {
    const auto c = origin.cache_stats();
    cache.hits += c.hits;
    cache.misses += c.misses;
    cache.evictions += c.evictions;
    const auto f = origin.single_flight_stats();
    flight.leads += f.leads;
    flight.joins += f.joins;
    const auto q = origin.build_queue_stats();
    queue.admitted += q.admitted;
    queue.shed += q.shed;
    queue.expired += q.expired;
    if (q.queue_wait_seconds.count > 0) {
      queue_wait_p50_s.push_back(q.queue_wait_seconds.p50);
      queue_wait_p99_s.push_back(q.queue_wait_seconds.p99);
    }
    asset += origin.asset_store_stats();
    const auto m = origin.metrics();
    metrics.internal_errors += m.internal_errors;
    metrics.ladder_stale += m.ladder_stale;
    metrics.builds_started += m.builds_started;
  }
};

// ---------------------------------------------------------------------------
// The workloads' traffic phases.
// ---------------------------------------------------------------------------

struct Traffic {
  std::vector<Tally> tallies;  ///< indexed like Run::requests
  ClientStats stats;
  double seconds = 0.0;           ///< the phase length the windows divide
  double measured_seconds = 0.0;  ///< actual time under load
  LayerCounters counters;
};

struct Run {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  int clients = 1;
  std::vector<serving::OriginSite> sites;
  std::vector<WireRequest> requests;
  std::unique_ptr<serving::OriginServer> origin;  ///< hot: the warmed origin
  serving::OriginOptions options;
};

serving::OriginOptions origin_options(const WorkloadSpec& spec,
                                      const std::vector<serving::OriginSite>& sites) {
  serving::OriginOptions options;
  if (&spec == &kMixed) {
    options.build_queue.workers = kMixedBuildWorkers;
    options.build_queue.capacity = kMixedQueueCapacity;
    Bytes corpus = 0;
    for (const auto& site : sites) corpus += site.page.transfer_size();
    options.cache.capacity_bytes =
        static_cast<Bytes>(kMixedCacheShare * static_cast<double>(corpus));
  }
  return options;
}

/// hot: closed loop, each client cycling its own slice of the request pool.
Traffic run_hot(Run& run, double seconds, bool traced) {
  Traffic traffic;
  traffic.tallies.resize(run.requests.size());
  const double limit_ns = run.spec->latency_limit_ms * 1e6;
  std::vector<ClientStats> per_client(static_cast<std::size_t>(run.clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < run.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& stats = per_client[static_cast<std::size_t>(c)];
      const std::size_t base = static_cast<std::size_t>(c) * kHotPoolPerClient;
      std::size_t i = 0;
      Clock::time_point previous_done = start;
      while (true) {
        const Clock::time_point sent = Clock::now();
        if (sent >= end) break;
        const std::size_t index = base + i;
        std::string out = exchange(*run.origin, run.requests[index].bytes, stats, traced);
        const Clock::time_point done = Clock::now();
        const std::uint64_t ns = nanos(done - sent);
        stats.lag.record(sent - previous_done);
        previous_done = done;
        const Answer& answer = traffic.tallies[index].add(std::move(out));
        stats.record(std::chrono::duration<double>(done - start).count(), seconds, ns,
                     good(answer) && static_cast<double>(ns) <= limit_ns);
        i = (i + 1) % kHotPoolPerClient;
      }
    });
  }
  for (auto& t : threads) t.join();
  traffic.seconds = seconds;
  traffic.measured_seconds = seconds_since(start);
  for (const auto& s : per_client) traffic.stats.merge(s);
  traffic.counters.add(*run.origin);
  return traffic;
}

/// cold: passes over the corpus, each against a freshly constructed origin;
/// clients claim sites from a shared counter. Origin construction and
/// teardown sit between passes, outside the measured time.
Traffic run_cold(Run& run, double seconds, bool traced, std::size_t& next_pass,
                 std::unique_ptr<serving::OriginServer>* keep_last) {
  Traffic traffic;
  traffic.tallies.resize(run.requests.size());
  const double limit_ns = run.spec->latency_limit_ms * 1e6;
  const std::size_t n = run.sites.size();
  std::vector<ClientStats> per_client(static_cast<std::size_t>(run.clients));
  double measured = 0.0;
  while (measured < seconds && next_pass < kColdMaxPasses) {
    const std::size_t pass = next_pass++;
    auto origin = std::make_unique<serving::OriginServer>(run.sites, run.options);
    std::atomic<std::size_t> next{0};
    const double offset = measured;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < run.clients; ++c) {
      threads.emplace_back([&, c] {
        ClientStats& stats = per_client[static_cast<std::size_t>(c)];
        Clock::time_point previous_done = start;
        for (std::size_t k; (k = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
          const std::size_t index = pass * n + k;
          const Clock::time_point sent = Clock::now();
          std::string out = exchange(*origin, run.requests[index].bytes, stats, traced);
          const Clock::time_point done = Clock::now();
          const std::uint64_t ns = nanos(done - sent);
          stats.lag.record(sent - previous_done);
          previous_done = done;
          const Answer& answer = traffic.tallies[index].add(std::move(out));
          stats.record(offset + std::chrono::duration<double>(done - start).count(), seconds, ns,
                       good(answer) && static_cast<double>(ns) <= limit_ns);
        }
      });
    }
    for (auto& t : threads) t.join();
    measured += seconds_since(start);
    traffic.counters.add(*origin);
    if (keep_last != nullptr) *keep_last = std::move(origin);
  }
  traffic.seconds = seconds;
  traffic.measured_seconds = measured;
  for (const auto& s : per_client) traffic.stats.merge(s);
  return traffic;
}

std::size_t mixed_slots(double seconds) {
  return static_cast<std::size_t>(std::ceil(seconds * kMixed.rate_rps));
}

/// mixed: open loop. Slot k is due at start + k / rate; a free generator
/// thread sleeps until then and sends it, and latency is charged from the
/// due time. Once a second, a content push invalidates the head sites.
Traffic run_mixed(Run& run, serving::OriginServer& origin, std::size_t first_slot,
                  std::size_t slots, bool traced) {
  Traffic traffic;
  traffic.tallies.resize(run.requests.size());
  const double limit_ns = run.spec->latency_limit_ms * 1e6;
  const double seconds = static_cast<double>(slots) / run.spec->rate_rps;
  std::vector<ClientStats> per_client(static_cast<std::size_t>(run.clients));
  std::atomic<std::size_t> next{0};
  std::atomic<int> pushes{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < run.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientStats& stats = per_client[static_cast<std::size_t>(c)];
      for (std::size_t k; (k = next.fetch_add(1, std::memory_order_relaxed)) < slots;) {
        const double due_s = static_cast<double>(k) / run.spec->rate_rps;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s));
        // Sleep to just short of the due time, then spin: timer slack would
        // otherwise be charged to every request as latency.
        std::this_thread::sleep_until(due - kSpinWindow);
        while (Clock::now() < due) {
        }
        const Clock::time_point sent = Clock::now();
        stats.lag.record(sent - due);
        int done_pushes = pushes.load(std::memory_order_relaxed);
        while (due_s >= done_pushes + 1.0 &&
               pushes.compare_exchange_weak(done_pushes, done_pushes + 1)) {
          for (std::size_t s = 0; s < kMixedPushSites; ++s) origin.invalidate_host(run.sites[s].host);
          ++done_pushes;
        }
        const std::size_t index = first_slot + k;
        std::string out = exchange(origin, run.requests[index].bytes, stats, traced);
        const std::uint64_t ns = nanos(Clock::now() - due);
        const Answer& answer = traffic.tallies[index].add(std::move(out));
        stats.record(due_s, seconds, ns, good(answer) && static_cast<double>(ns) <= limit_ns);
      }
    });
  }
  for (auto& t : threads) t.join();
  traffic.seconds = seconds;
  traffic.measured_seconds = seconds_since(start);
  for (const auto& s : per_client) traffic.stats.merge(s);
  traffic.counters.add(origin);
  return traffic;
}

/// goodput and latency percentiles of one phase: medians over window groups.
struct Windowed {
  double goodput_rps = 0, p50_ms = 0, p99_ms = 0;
  std::uint64_t samples = 0;
  int groups = 0;
};

Windowed windowed(const Traffic& t) {
  Windowed out;
  for (const LatencyHistogram& h : t.stats.latency) out.samples += h.count();
  out.groups = static_cast<int>(
      std::clamp<std::uint64_t>(out.samples / kGroupSamples, 1, kWindows));
  const double length = t.seconds / kWindows;
  std::vector<double> goodput, p50, p99;
  for (int g = 0; g < out.groups; ++g) {
    LatencyHistogram latency;
    std::uint64_t good = 0;
    double seconds = 0.0;
    for (int w = g * kWindows / out.groups; w < (g + 1) * kWindows / out.groups; ++w) {
      latency.merge(t.stats.latency[static_cast<std::size_t>(w)]);
      good += t.stats.good[static_cast<std::size_t>(w)];
      // The last window also holds answers that finished after the phase.
      seconds += w + 1 < kWindows ? length
                                  : std::max(length, t.measured_seconds - length * (kWindows - 1));
    }
    goodput.push_back(static_cast<double>(good) / seconds);
    p50.push_back(latency.quantile_ms(0.50));
    p99.push_back(latency.quantile_ms(0.99));
  }
  out.goodput_rps = median(goodput);
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  return out;
}

// ---------------------------------------------------------------------------
// Set-up: corpus, wire requests, origin, and (hot) the warm-up builds.
// ---------------------------------------------------------------------------

void warm_up(const serving::OriginServer& origin, const std::vector<WireRequest>& warm,
             int clients) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      ClientStats scratch;
      for (std::size_t k; (k = next.fetch_add(1)) < warm.size();) {
        exchange<false>(origin, warm[k].bytes, scratch);
      }
    });
  }
  for (auto& t : threads) t.join();
}


/// `count` site indices whose frequencies follow Zipf(1.0) over [0, n), with
/// each site's arrivals spread evenly through the sequence (smooth weighted
/// round robin) from a seeded starting phase. Popularity is Zipf, but the
/// misses it causes arrive evenly rather than in chance clusters, so the
/// tail latency reflects the origin rather than the luck of the draw.
std::vector<std::uint32_t> smooth_zipf(Rng& rng, std::uint32_t n, std::size_t count) {
  std::vector<double> weight(n), credit(n);
  double total = 0.0;
  for (std::uint32_t s = 0; s < n; ++s) total += weight[s] = 1.0 / (s + 1.0);
  for (std::uint32_t s = 0; s < n; ++s) {
    weight[s] /= total;
    credit[s] = rng.uniform();
  }
  std::vector<std::uint32_t> order;
  order.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t best = 0;
    for (std::uint32_t s = 0; s < n; ++s) {
      credit[s] += weight[s];
      if (credit[s] > credit[best]) best = s;
    }
    credit[best] -= 1.0;
    order.push_back(best);
  }
  return order;
}

/// One complete set-up; returns its wall time in seconds.
double set_up(Run& run, double seconds, int phases) {
  const Clock::time_point start = Clock::now();
  const WorkloadSpec& spec = *run.spec;
  run.sites = make_sites(spec, run.seed, spec.sites);
  run.options = origin_options(spec, run.sites);
  Rng rng = Rng(run.seed).fork("requests");
  const auto n = static_cast<std::uint32_t>(run.sites.size());
  run.requests.clear();
  if (&spec == &kHot) {
    for (std::size_t i = 0; i < kHotPoolPerClient * static_cast<std::size_t>(run.clients); ++i) {
      const auto s = static_cast<std::uint32_t>(rng.zipf(n, 1.0) - 1);
      run.requests.push_back(make_request(rng, run.sites[s].host, s, spec.mix));
    }
  } else if (&spec == &kCold) {
    for (std::size_t pass = 0; pass < kColdMaxPasses; ++pass) {
      std::vector<std::uint32_t> order(n);
      for (std::uint32_t s = 0; s < n; ++s) order[s] = s;
      rng.shuffle(order);
      for (const std::uint32_t s : order) {
        run.requests.push_back(make_request(rng, run.sites[s].host, s, spec.mix));
      }
    }
  } else {
    // Every phase runs against its own cold origin.
    const std::size_t slots = mixed_slots(seconds / phases) * static_cast<std::size_t>(phases);
    for (const std::uint32_t s : smooth_zipf(rng, n, slots)) {
      run.requests.push_back(make_request(rng, run.sites[s].host, s, spec.mix));
    }
  }
  run.origin = std::make_unique<serving::OriginServer>(run.sites, run.options);
  if (&spec == &kHot) {
    std::vector<WireRequest> warm;
    for (std::uint32_t s = 0; s < n; ++s) {
      warm.push_back(make_request(rng, run.sites[s].host, s, spec.mix, /*force_save_data=*/true));
    }
    warm_up(*run.origin, warm, run.clients);
  }
  return seconds_since(start);
}

// ---------------------------------------------------------------------------
// The reference oracle.
// ---------------------------------------------------------------------------

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::uint64_t tier_answers = 0;
  std::uint64_t paw_total = 0;
  std::uint64_t paw_met = 0;
  double qss_sum = 0.0;
  std::vector<std::string> mismatches;  ///< first few, for the log
};

using Reference = std::vector<core::Tier>;

const core::Tier* tier_named(const Reference& tiers, const std::string& name) {
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const core::Tier& tier = tiers[i];
    const std::string label = tier.kind == core::TierKind::kImage ? std::to_string(i)
                                                                  : core::to_string(tier.kind);
    if (label == name) return &tier;
  }
  return nullptr;
}

/// Reference ladders (nothing cached: no cache, queue, flight or store) for
/// every site some Save-Data answer came from, built across `clients`
/// threads. Sites that already have one are skipped.
void build_references(const std::vector<serving::OriginSite>& sites,
                      const std::vector<bool>& needed, int clients,
                      std::vector<std::optional<Reference>>& refs) {
  std::vector<std::size_t> todo;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    if (needed[s] && !refs[s]) todo.push_back(s);
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (std::size_t k; (k = next.fetch_add(1)) < todo.size();) {
        const std::size_t s = todo[k];
        refs[s] = core::Aw4aPipeline(sites[s].config).build_tiers(sites[s].page);
      }
    });
  }
  for (auto& t : threads) t.join();
}

/// Checks one distinct answer against the reference. Returns an empty
/// string when it agrees, else what disagreed.
std::string check_answer(const serving::OriginSite& site, const Reference* ref,
                         const net::HttpRequest& request, const Answer& answer) {
  if (answer.status != 200) return "status " + std::to_string(answer.status);
  if (answer.tier == "none") {
    // Declared shed or degraded: the original page, nothing more claimed.
    if (answer.content_length != site.page.transfer_size()) {
      return "degraded Content-Length " + std::to_string(answer.content_length) + " != " +
             std::to_string(site.page.transfer_size());
    }
    return "";
  }
  const std::span<const core::Tier> tiers =
      ref != nullptr ? std::span<const core::Tier>(*ref) : std::span<const core::Tier>{};
  const net::HttpResponse expected =
      core::answer_page_request(site.page, tiers, "", site.plan, request).response;
  const std::string* expected_tier = expected.header("AW4A-Tier");
  if (expected.status != answer.status) return "status differs from reference";
  if (expected.content_length != answer.content_length) {
    return "Content-Length " + std::to_string(answer.content_length) + " != reference " +
           std::to_string(expected.content_length);
  }
  if (expected_tier == nullptr || *expected_tier != answer.tier) {
    return "AW4A-Tier " + answer.tier + " != reference " +
           (expected_tier ? *expected_tier : std::string("(none)"));
  }
  return "";
}

Verdict verify(const Run& run, const std::vector<Tally>& tallies, int clients,
               std::vector<std::optional<Reference>>& refs) {
  // Which sites need a reference ladder: any Save-Data answer other than a
  // declared shed/degraded one may depend on the ladder.
  std::vector<bool> needed(run.sites.size(), false);
  for (std::size_t i = 0; i < tallies.size(); ++i) {
    for (const Distinct& d : tallies[i].seen) {
      if (d.answer.tier != "none" && d.answer.tier != "original") {
        needed[run.requests[i].site] = true;
      }
      if (d.answer.tier == "original" &&
          run.requests[i].bytes.find("Save-Data: on") != std::string::npos) {
        needed[run.requests[i].site] = true;
      }
    }
  }
  build_references(run.sites, needed, clients, refs);

  Verdict verdict;
  for (std::size_t i = 0; i < tallies.size(); ++i) {
    const Tally& tally = tallies[i];
    if (tally.seen.empty()) continue;
    const WireRequest& wire = run.requests[i];
    const serving::OriginSite& site = run.sites[wire.site];
    const Reference* ref = refs[wire.site] ? &*refs[wire.site] : nullptr;
    const std::optional<net::HttpRequest> request = net::parse_request(wire.bytes);
    const bool paw_request = request && request->save_data() && request->country_hint() &&
                             !request->preferred_savings_pct();
    double paw = 0.0;
    if (paw_request) {
      paw = core::paw_index(*dataset::find_country_by_code(*request->country_hint()), site.plan);
    }
    for (const Distinct& d : tally.seen) {
      verdict.attempted += d.count;
      std::string problem = request ? check_answer(site, ref, *request, d.answer)
                                    : std::string("request did not parse");
      if (!problem.empty()) {
        verdict.failed += d.count;
        if (verdict.mismatches.size() < 5) {
          verdict.mismatches.push_back(site.host + ": " + problem);
        }
        continue;
      }
      if (d.answer.kind == Kind::kShed) verdict.shed += d.count;
      if (d.answer.kind == Kind::kDegraded) verdict.degraded += d.count;
      if (paw_request) {
        verdict.paw_total += d.count;
        const double achieved = d.answer.content_length == 0
                                    ? 0.0
                                    : static_cast<double>(site.page.transfer_size()) /
                                          static_cast<double>(d.answer.content_length);
        if (paw <= 1.0 || achieved + 1e-9 >= paw) verdict.paw_met += d.count;
      }
      if (d.answer.tier != "none" && d.answer.tier != "original" && ref != nullptr) {
        if (const core::Tier* tier = tier_named(*ref, d.answer.tier)) {
          verdict.tier_answers += d.count;
          verdict.qss_sum += static_cast<double>(d.count) * tier->result.quality.qss;
        }
      }
    }
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// Per-layer replay (traced runs): core calls, imaging counters, handle probes.
// ---------------------------------------------------------------------------

struct CoreReplay {
  double build_ms = 0, prewarm_ms = 0, solve_ms = 0, quality_ms = 0, ultra_ms = 0;
  double answer_us = 0;
  double encodes = 0, prepares = 0, encoded_mb = 0;
  std::size_t builds = 0;
};

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

/// Replays sites [0, count) one at a time on this thread: the full
/// build_tiers (timed, with the imaging work counters read around it), then
/// the same build split into its layers on a fresh ladder cache.
CoreReplay replay_core(const std::vector<serving::OriginSite>& sites, std::size_t count,
                       std::vector<std::optional<Reference>>& refs, std::uint64_t seed) {
  CoreReplay replay;
  LatencyHistogram answer_ns;
  Rng rng = Rng(seed).fork("replay");
  for (std::size_t s = 0; s < count && s < sites.size(); ++s) {
    const serving::OriginSite& site = sites[s];
    const core::DeveloperConfig& config = site.config;
    const core::Aw4aPipeline pipeline(config);

    const imaging::BuildWorkStats before = imaging::build_work_stats();
    Clock::time_point t = Clock::now();
    Reference tiers = pipeline.build_tiers(site.page);
    replay.build_ms += ms_since(t);
    const imaging::BuildWorkStats after = imaging::build_work_stats();
    replay.encodes += static_cast<double>(after.encodes - before.encodes);
    replay.prepares += static_cast<double>(after.prepares - before.prepares);
    replay.encoded_mb += static_cast<double>(after.encoded_bytes - before.encoded_bytes) / 1e6;
    ++replay.builds;

    core::DeveloperConfig solve_config = config;
    solve_config.measure_qfs = false;
    const core::Aw4aPipeline solver(solve_config);
    core::LadderCache ladders(solver.ladder_options());
    t = Clock::now();
    ladders.prewarm(site.page, 1u);
    replay.prewarm_ms += ms_since(t);
    std::vector<core::TranscodeResult> results;
    for (const double reduction : config.tier_reductions) {
      const auto target =
          static_cast<Bytes>(static_cast<double>(site.page.transfer_size()) / reduction);
      t = Clock::now();
      results.push_back(solver.transcode_to_target(site.page, target, ladders));
      replay.solve_ms += ms_since(t);
    }
    if (config.ultra_low.any()) {
      t = Clock::now();
      if (config.ultra_low.text_only) {
        results.push_back(core::build_text_only(site.page, ladders, config.stage1,
                                                config.quality_weights, false));
      }
      if (config.ultra_low.markup_rewrite) {
        results.push_back(core::build_markup_rewrite(site.page, solver.ladder_options(),
                                                     config.quality_weights, false));
      }
      replay.ultra_ms += ms_since(t);
    }
    for (const core::TranscodeResult& result : results) {
      t = Clock::now();
      core::evaluate_quality(result.served, config.quality_weights, config.measure_qfs);
      replay.quality_ms += ms_since(t);
    }

    // The Fig. 6 decision on the built ladder, per call.
    std::vector<net::HttpRequest> requests;
    for (int i = 0; i < 64; ++i) {
      const WireRequest wire = make_request(rng, site.host, static_cast<std::uint32_t>(s),
                                            HeaderMix::kHot, /*force_save_data=*/true);
      requests.push_back(*net::parse_request(wire.bytes));
    }
    for (int i = 0; i < kProbeCalls / 4; ++i) {
      const auto& request = requests[static_cast<std::size_t>(i) % requests.size()];
      t = Clock::now();
      const auto outcome = core::answer_page_request(site.page, tiers, "", site.plan, request);
      answer_ns.record(Clock::now() - t);
      if (outcome.response.status != 200) {
        std::fprintf(stderr, "origin_bench: answer_page_request returned %d\n",
                     outcome.response.status);
        std::exit(3);
      }
    }
    if (!refs[s]) refs[s] = std::move(tiers);
  }
  const double n = std::max<double>(1.0, static_cast<double>(replay.builds));
  replay.build_ms /= n;
  replay.prewarm_ms /= n;
  replay.solve_ms /= n;
  replay.quality_ms /= n;
  replay.ultra_ms /= n;
  replay.encodes /= n;
  replay.prepares /= n;
  replay.encoded_mb /= n;
  replay.answer_us = answer_ns.quantile_us(0.5);
  return replay;
}

struct HandleProbe {
  double hit_us = 0, original_us = 0, shed_us = 0;
};

/// Single-thread handle() times by answer kind. Hits and originals go to
/// `origin` (warm from the traffic phase); sheds to a copy of the corpus
/// behind a build queue of capacity 0, where every Save-Data miss sheds.
HandleProbe probe_handle(const Run& run, const serving::OriginServer& origin) {
  HandleProbe probe;
  Rng rng = Rng(run.seed).fork("probe");
  const auto time_calls = [&](const serving::OriginServer& target,
                              const std::vector<net::HttpRequest>& requests, Kind want) {
    LatencyHistogram ns;
    for (int i = 0; i < kProbeCalls; ++i) {
      const auto& request = requests[static_cast<std::size_t>(i) % requests.size()];
      const Clock::time_point t = Clock::now();
      const net::HttpResponse response = target.handle(request);
      ns.record(Clock::now() - t);
      // A hit may still answer "original" (the hinted country already meets
      // its PAW target); it read the cached ladder all the same.
      const Kind kind = summarize(net::serialize(response)).kind;
      if (kind != want && !(want == Kind::kTier && kind == Kind::kOriginal)) {
        std::fprintf(stderr, "origin_bench: probe answer of unexpected kind:\n%s\n",
                     net::serialize(response).c_str());
        std::exit(3);
      }
    }
    return ns.quantile_us(0.5);
  };

  // Hits: sites whose ladder is resident (a probe request that builds is
  // discarded; at most a handful of sites are tried).
  std::vector<net::HttpRequest> hits, originals, sheds;
  for (std::uint32_t s = 0; s < run.sites.size() && s < 8 && hits.size() < 32; ++s) {
    const auto parse = [&](bool save_data) {
      return *net::parse_request(
          make_request(rng, run.sites[s].host, s, HeaderMix::kHot, save_data).bytes);
    };
    originals.push_back(parse(false));
    sheds.push_back(parse(true));
    net::HttpRequest request = parse(true);
    const std::uint64_t cached_before = origin.metrics().ladder_cached;
    origin.handle(request);  // builds when not resident
    if (origin.metrics().ladder_cached == cached_before) origin.handle(request);
    if (origin.metrics().ladder_cached > cached_before) {
      for (int v = 0; v < 8; ++v) hits.push_back(parse(true));
    }
  }
  // Originals need no Save-Data: drop the hint headers from the draws.
  for (auto& request : originals) {
    std::erase_if(request.headers, [](const net::HttpHeader& h) {
      return h.name == "Save-Data" || h.name == "X-Geo-Country" || h.name == "AW4A-Savings";
    });
  }
  if (!hits.empty()) probe.hit_us = time_calls(origin, hits, Kind::kTier);
  probe.original_us = time_calls(origin, originals, Kind::kOriginal);
  serving::OriginOptions shed_options;
  shed_options.build_queue.capacity = 0;
  const serving::OriginServer shedding(run.sites, shed_options);
  probe.shed_us = time_calls(shedding, sheds, Kind::kShed);
  return probe;
}

// ---------------------------------------------------------------------------
// Host stamp and output.
// ---------------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "origin_bench: %s\n"
               "usage: origin_bench --workload hot|cold|mixed --seed N --seconds S --trace 0|1\n"
               "       origin_bench --self-test\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      args.trace = value() == "1";
    } else if (arg == "--self-test") {
      args.self_test = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!args.self_test && args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec* spec : {&kHot, &kCold, &kMixed}) {
    if (name == spec->name) return spec;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Oracle self-test: one real answer must pass, the same answer with a
// tampered Content-Length must be counted as failed.
// ---------------------------------------------------------------------------
int self_test(std::uint64_t seed) {
  Run run;
  run.spec = &kCold;
  run.seed = seed;
  run.clients = 1;
  run.sites = make_sites(kCold, seed, 1);
  Rng rng = Rng(seed).fork("self-test");
  run.requests.push_back(make_request(rng, run.sites[0].host, 0, HeaderMix::kCold));
  const serving::OriginServer origin(run.sites);
  ClientStats stats;
  std::string wire = exchange<false>(origin, run.requests[0].bytes, stats);

  std::vector<std::optional<Reference>> refs(1);
  std::vector<Tally> tallies(1);
  tallies[0].add(std::string(wire));
  const Verdict honest = verify(run, tallies, 1, refs);

  const auto at = wire.find("Content-Length: ");
  if (at == std::string::npos) {
    std::fprintf(stderr, "self-test: response has no Content-Length\n");
    return 1;
  }
  wire.insert(at + std::strlen("Content-Length: "), "1");  // 10x the length
  tallies.assign(1, Tally{});
  tallies[0].add(std::move(wire));
  const Verdict tampered = verify(run, tallies, 1, refs);

  const bool ok = honest.attempted == 1 && honest.failed == 0 && tampered.attempted == 1 &&
                  tampered.failed == 1;
  std::printf("{\"self_test\": \"%s\", \"honest_failed\": %llu, \"tampered_failed\": %llu}\n",
              ok ? "pass" : "FAIL", static_cast<unsigned long long>(honest.failed),
              static_cast<unsigned long long>(tampered.failed));
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.self_test) return self_test(args.seed);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());

  Run run;
  run.spec = spec;
  run.seed = args.seed;
  run.clients = client_count(*spec);

  // Set-up, several times; the median is setup_s and the last one is used.
  const int phases = args.trace ? 2 : 1;
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    run.origin.reset();
    setups.push_back(set_up(run, args.seconds, phases));
  }
  const double setup_s = median(setups);

  // Traffic. Untraced runs measure once for --seconds; traced runs measure
  // an untraced phase and then a traced one, half the time each, so the
  // goodput ratio of the two is the tracing overhead.
  const double phase_seconds = args.seconds / phases;
  std::unique_ptr<serving::OriginServer> last_origin;  // warm, for the probes
  std::size_t next_pass = 0;
  const auto run_phase = [&](bool with_trace, std::size_t phase) {
    if (spec == &kHot) return run_hot(run, phase_seconds, with_trace);
    if (spec == &kCold) return run_cold(run, phase_seconds, with_trace, next_pass, &last_origin);
    const std::size_t slots = mixed_slots(phase_seconds);
    auto origin = std::make_unique<serving::OriginServer>(run.sites, run.options);
    Traffic t = run_mixed(run, *origin, phase * slots, slots, with_trace);
    last_origin = std::move(origin);
    return t;
  };
  std::vector<Traffic> traffic;
  traffic.push_back(run_phase(false, 0));
  if (args.trace) traffic.push_back(run_phase(true, 1));
  const Traffic& measured = traffic.back();

  // Per-layer replay and probes (traced only), before the oracle so the
  // imaging counters see nothing but the replayed builds.
  std::vector<std::optional<Reference>> refs(run.sites.size());
  HandleProbe probe;
  CoreReplay replay;
  if (args.trace) {
    probe = probe_handle(run, spec == &kHot ? *run.origin : *last_origin);
    last_origin.reset();
    run.origin.reset();
    replay = replay_core(run.sites, kReplaySites, refs, run.seed);
  }
  last_origin.reset();
  run.origin.reset();

  // The oracle, per phase. The measured phase is the last one.
  Verdict verdict;
  std::uint64_t internal_errors = 0;
  for (const Traffic& t : traffic) {
    const Verdict v = verify(run, t.tallies, run.clients, refs);
    for (const std::string& m : v.mismatches) std::fprintf(stderr, "mismatch: %s\n", m.c_str());
    verdict.attempted += v.attempted;
    verdict.failed += v.failed;
    internal_errors += t.counters.metrics.internal_errors;
    if (&t != &measured) continue;
    verdict.shed = v.shed;
    verdict.degraded = v.degraded;
    verdict.tier_answers = v.tier_answers;
    verdict.paw_total = v.paw_total;
    verdict.paw_met = v.paw_met;
    verdict.qss_sum = v.qss_sum;
  }
  const Windowed result = windowed(measured);
  const LayerCounters& counters = measured.counters;
  const ClientStats& stats = measured.stats;

  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, verdict.attempted));
  const double failed_ratio = static_cast<double>(verdict.failed) / attempted;
  const double paw_met_ratio =
      verdict.paw_total == 0 ? 0.0
                             : static_cast<double>(verdict.paw_met) / static_cast<double>(verdict.paw_total);
  const double qss_mean =
      verdict.tier_answers == 0 ? 0.0 : verdict.qss_sum / static_cast<double>(verdict.tier_answers);

  std::vector<Metric> end_to_end = {
      {"goodput_rps", result.goodput_rps, "1/s"},
      {"latency_p50_ms", result.p50_ms, "ms"},
      {"latency_p99_ms", result.p99_ms, "ms"},
      {"paw_met_ratio", paw_met_ratio, "ratio"},
      {"served_qss_mean", qss_mean, "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::vector<Metric> per_layer;
  if (args.trace) {
    const LayerCounters& c = counters;
    const auto ratio = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
    per_layer = {
        {"net.parse_us", stats.parse.quantile_us(0.5), "us"},
        {"net.serialize_us", stats.serialize.quantile_us(0.5), "us"},
        {"serving.handle_hit_us", probe.hit_us, "us"},
        {"serving.handle_original_us", probe.original_us, "us"},
        {"serving.shed_us", probe.shed_us, "us"},
        {"serving.cache.hit_ratio", c.cache.hit_rate(), "ratio"},
        {"serving.cache.evictions", static_cast<double>(c.cache.evictions), "count"},
        {"serving.flight.joins_per_lead",
         ratio(static_cast<double>(c.flight.joins), static_cast<double>(c.flight.leads)), "ratio"},
        {"serving.queue.wait_p50_ms", median(c.queue_wait_p50_s) * 1e3, "ms"},
        {"serving.queue.wait_p99_ms", median(c.queue_wait_p99_s) * 1e3, "ms"},
        {"serving.queue.shed_ratio",
         ratio(static_cast<double>(c.queue.shed), static_cast<double>(c.queue.admitted + c.queue.shed)),
         "ratio"},
        {"serving.queue.expired", static_cast<double>(c.queue.expired), "count"},
        {"serving.asset.hit_ratio",
         ratio(static_cast<double>(c.asset.exact_hits + c.asset.semantic_hits),
               static_cast<double>(c.asset.lookups)),
         "ratio"},
        {"serving.asset.probes_per_lookup",
         ratio(static_cast<double>(c.asset.probes), static_cast<double>(c.asset.lookups)), "ratio"},
        {"core.build_ms", replay.build_ms, "ms"},
        {"core.prewarm_ms", replay.prewarm_ms, "ms"},
        {"core.solve_ms", replay.solve_ms, "ms"},
        {"core.quality_ms", replay.quality_ms, "ms"},
        {"core.ultra_ms", replay.ultra_ms, "ms"},
        {"core.answer_us", replay.answer_us, "us"},
        {"imaging.encodes_per_build", replay.encodes, "count"},
        {"imaging.prepares_per_build", replay.prepares, "count"},
        {"imaging.encoded_mb_per_build", replay.encoded_mb, "MB"},
        {"bench.generator_lag_p99_ms", stats.lag.quantile_ms(0.99), "ms"},
        {"bench.trace_overhead_ratio",
         ratio(result.goodput_rps, windowed(traffic.front()).goodput_rps), "ratio"},
        {"bench.unattributed_ratio",
         ratio(replay.build_ms - replay.prewarm_ms - replay.solve_ms - replay.quality_ms -
                   replay.ultra_ms,
               replay.build_ms),
         "ratio"},
    };
  }

  const bool correct = verdict.failed == 0 && verdict.attempted > 0 && internal_errors == 0;

  // Full record: stamp, every metric, sample counts.
  std::ostringstream record;
  record << "{\"benchmark\": \"origin_bench\", \"workload\": \"" << spec->name
         << "\", \"seed\": " << args.seed << ", \"seconds\": " << number(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"stamp\": {\"nproc\": "
         << std::thread::hardware_concurrency() << ", \"clients\": " << run.clients
         << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
         << json_escape(compiler()) << "\", \"build_type\": \"" << ORIGINBENCH_BUILD_TYPE
         << "\"}, \"workload_spec\": {\"loop\": \"" << (spec->rate_rps > 0 ? "open" : "closed")
         << "\", \"clients\": " << run.clients << ", \"rate_rps\": " << number(spec->rate_rps)
         << ", \"latency_limit_ms\": " << number(spec->latency_limit_ms)
         << ", \"sites\": " << spec->sites << "}, \"attempted\": " << verdict.attempted
         << ", \"failed\": " << verdict.failed << ", \"failed_ratio\": " << number(failed_ratio)
         << ", \"shed\": " << verdict.shed << ", \"degraded\": " << verdict.degraded
         << ", \"builds\": " << counters.metrics.builds_started
         << ", \"stale_served\": " << counters.metrics.ladder_stale
         << ", \"latency_samples\": " << result.samples
         << ", \"window_groups\": " << result.groups
         << ", \"paw_answers\": " << verdict.paw_total << ", \"tier_answers\": " << verdict.tier_answers
         << ", \"measured_seconds\": " << number(measured.measured_seconds)
         << ", \"end_to_end\": " << metrics_json(end_to_end);
  if (args.trace) record << ", \"per_layer\": " << metrics_json(per_layer);
  record << "}";
  std::printf("%s\n", record.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed),
              metrics_json(args.trace ? per_layer : end_to_end).c_str());
  return 0;
}
