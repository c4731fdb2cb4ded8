// Open-loop overload benchmark of the serving build plane.
//
// The closed-loop predecessor (bench_serve_cache) measured cache speedups,
// but a closed loop cannot see overload: its arrival rate falls to whatever
// the server sustains, so saturation never shows up as queueing delay or
// shedding. This bench drives an *open-loop* Zipf(1.0) arrival process at
// fixed multiples of the build plane's measured capacity and reports what
// the paper's affordability story needs under flash crowds: goodput held
// near capacity, overload answered with fast degraded 200s (never 5xx),
// and tail sojourn bounded by admission control instead of growing without
// bound.
//
// Phases:
//   A  capacity    closed-loop cold builds (a cache that admits nothing, one
//                  thread per build worker, distinct sites) -> build-plane
//                  capacity in req/s.
//   B  shed floor  a capacity-0 origin sheds every request; its service-time
//                  p99.9 x margin is the *shed fast-path bound* that
//                  overloaded shed answers must stay under.
//   C  sweep       open-loop arrivals at {0.5,1,2,4,10}x capacity against a
//                  fresh origin per rate (a cache that admits nothing, so
//                  every data-saving request demands a build; concurrent
//                  arrivals for one site join one flight, as in production).
//                  Sojourn is measured from the *scheduled* arrival time, so
//                  backlog shows up as latency.
//   D  storm       a warm cached origin at 4x build capacity takes a mid-run
//                  invalidate_host burst across every site: goodput must hold
//                  (stale-while-revalidate) while rebuilds re-admit at a
//                  bounded rate.
//
// The bench pins a deliberately small build plane (queue capacity 8, 4
// workers): a thread-bounded generator can only hold `threads` requests in
// flight, so saturation must be reachable below that. The generator claims
// arrival slots from a shared counter — a thread stuck in a long build never
// strands the arrivals behind it, the next free thread picks them up.
//
// Exit status is the acceptance check (run by tier1.sh): non-zero when the
// 4x row shows any non-200 answer or internal error, when 4x goodput falls
// below 80% of the 1x row, or when the 4x shed p99.9 exceeds the phase-B
// bound.
//
//   build/bench/bench_serve_overload [--sites=40] [--threads=32]
//       [--seconds=3] [--zipf=1.0] [--json=BENCH_serving.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "dataset/corpus.h"
#include "serving/origin.h"
#include "util/rng.h"

namespace {

using namespace aw4a;
using bench::Entry;
using bench::write_json;
using Clock = std::chrono::steady_clock;

struct BenchOptions {
  std::size_t sites = 40;
  std::size_t threads = 32;
  double seconds = 3.0;  ///< duration of each phase / sweep point
  double zipf_s = 1.0;
  std::string json_path = "BENCH_serving.json";
};

/// The build plane under test: small enough that a thread-bounded generator
/// can saturate it (threads > capacity + workers).
constexpr std::size_t kQueueCapacity = 8;
constexpr int kQueueWorkers = 4;
/// Phase-B margin: overloaded shed answers may be this much slower than the
/// unloaded shed fast path before the bench fails.
constexpr double kShedBoundMargin = 5.0;
constexpr double kShedBoundFloorMs = 2.0;

double percentile(std::vector<double>& sorted_or_raw, double q) {
  if (sorted_or_raw.empty()) return 0.0;
  std::sort(sorted_or_raw.begin(), sorted_or_raw.end());
  const auto index =
      static_cast<std::size_t>(q * static_cast<double>(sorted_or_raw.size() - 1));
  return sorted_or_raw[index];
}

std::vector<serving::OriginSite> make_corpus(const BenchOptions& options) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 1729, .rich = true});
  Rng rng(1729);
  core::DeveloperConfig config;
  config.tier_reductions = {2.0};
  config.min_image_ssim = 0.8;
  config.measure_qfs = false;
  std::vector<serving::OriginSite> sites;
  sites.reserve(options.sites);
  for (std::size_t i = 0; i < options.sites; ++i) {
    const Bytes target = from_kb(rng.uniform(150.0, 400.0));
    sites.push_back(serving::OriginSite{
        "site-" + std::to_string(i) + ".example",
        gen.make_page(rng, target, gen.global_profile()),
        config,
        net::PlanType::kDataVoiceLowUsage,
    });
  }
  return sites;
}

net::HttpRequest make_request(const std::string& host, int variant) {
  net::HttpRequest request;
  request.headers.push_back({"Host", host});
  request.headers.push_back({"Save-Data", "on"});
  switch (variant % 3) {
    case 0: request.headers.push_back({"X-Geo-Country", "ET"}); break;
    case 1: request.headers.push_back({"X-Geo-Country", "PK"}); break;
    default: request.headers.push_back({"AW4A-Savings", "50"}); break;
  }
  return request;
}

/// A tier cache or asset store this small admits nothing: every entry costs
/// more than the whole one-byte shard.
constexpr serving::TierCacheOptions kAdmitNothingCache{.capacity_bytes = 1, .shards = 1};
constexpr serving::AssetStoreOptions kAdmitNothingStore{.capacity_bytes = 1, .shards = 1};

serving::OriginOptions plane_options() {
  serving::OriginOptions options;
  options.build_queue.capacity = kQueueCapacity;
  options.build_queue.workers = kQueueWorkers;
  // This bench measures the *build plane* under load, so every build must
  // cost real encode work: with a working content-addressed asset store,
  // repeated cold builds of one site collapse into memo adoptions and the
  // measured "capacity" becomes store throughput, not build throughput.
  options.asset_store = kAdmitNothingStore;
  return options;
}

/// plane_options() with a tier cache that admits nothing: every data-saving
/// request demands a build.
serving::OriginOptions uncached_plane_options() {
  serving::OriginOptions options = plane_options();
  options.cache = kAdmitNothingCache;
  return options;
}

// --------------------------------------------------------------------------
// Phase A: build-plane capacity (req/s of pure cold builds).
// --------------------------------------------------------------------------
double measure_capacity(const std::vector<serving::OriginSite>& sites,
                        const BenchOptions& options) {
  const serving::OriginServer origin(sites, uncached_plane_options());

  std::atomic<std::uint64_t> completed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueueWorkers; ++t) {
    threads.emplace_back([&, t] {
      // Distinct sites per thread: no single-flight collapsing, so this
      // measures raw build throughput, workers fully busy, queue empty.
      std::size_t i = static_cast<std::size_t>(t);
      int variant = t;
      while (!stop.load(std::memory_order_acquire)) {
        const auto response = origin.handle(make_request(sites[i % sites.size()].host, variant++));
        if (response.status == 200) completed.fetch_add(1, std::memory_order_relaxed);
        i += static_cast<std::size_t>(kQueueWorkers);
      }
    });
  }
  const auto start = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(options.seconds));
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(completed.load()) / elapsed;
}

// --------------------------------------------------------------------------
// Phase B: the unloaded shed fast path (capacity 0 -> every request sheds).
// --------------------------------------------------------------------------
double measure_shed_floor_p999_ms(const std::vector<serving::OriginSite>& sites) {
  serving::OriginOptions origin_options = plane_options();
  origin_options.build_queue.capacity = 0;
  const serving::OriginServer origin(sites, std::move(origin_options));

  constexpr std::size_t kSamplesPerThread = 2000;
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> samples(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      samples[t].reserve(kSamplesPerThread);
      int variant = static_cast<int>(t);
      for (std::size_t i = 0; i < kSamplesPerThread; ++i) {
        const auto started = Clock::now();
        const auto response = origin.handle(make_request(sites[i % sites.size()].host, variant++));
        const double ms = std::chrono::duration<double, std::milli>(Clock::now() - started).count();
        if (response.status == 200 && response.header("Retry-After") != nullptr) {
          samples[t].push_back(ms);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::vector<double> all;
  for (auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  return percentile(all, 0.999);
}

// --------------------------------------------------------------------------
// Phase C/D shared open-loop generator.
// --------------------------------------------------------------------------
struct OpenLoopResult {
  double multiplier = 0.0;
  double rate_rps = 0.0;  ///< offered arrival rate
  std::uint64_t sent = 0;
  std::uint64_t good = 0;  ///< 200 and not shed
  std::uint64_t shed = 0;  ///< 200 with Retry-After
  std::uint64_t errors = 0;  ///< any non-200 answer
  std::uint64_t internal_errors = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t refresh_sheds = 0;
  double elapsed_seconds = 0.0;
  double sojourn_p50_ms = 0.0;
  double sojourn_p99_ms = 0.0;
  double sojourn_p999_ms = 0.0;
  double shed_service_p99_ms = 0.0;
  double shed_service_p999_ms = 0.0;

  double goodput() const {
    return elapsed_seconds == 0.0 ? 0.0 : static_cast<double>(good) / elapsed_seconds;
  }
  double shed_rate() const {
    return sent == 0 ? 0.0 : static_cast<double>(shed) / static_cast<double>(sent);
  }
};

/// Open-loop run against `origin` at `rate_rps` for `seconds`. Arrival slots
/// are claimed from a shared counter: slot i is scheduled at start + i/rate,
/// a free thread sleeps until then, issues the request, and measures sojourn
/// from the *scheduled* time — so requests delayed because every generator
/// thread was stuck behind slow builds are charged that delay, as a queueing
/// system would charge them. `invalidate_all_at_seconds` >= 0 fires an
/// invalidate_host burst across every site once, at that offset (phase D).
OpenLoopResult run_open_loop(serving::OriginServer& origin,
                             const std::vector<serving::OriginSite>& sites, double rate_rps,
                             double seconds, const BenchOptions& options,
                             double invalidate_all_at_seconds = -1.0) {
  const double interval = 1.0 / rate_rps;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::atomic<std::uint64_t> next_slot{0};
  std::atomic<std::uint64_t> good{0}, shed{0}, errors{0};
  std::atomic<bool> invalidated{false};
  std::vector<std::vector<double>> sojourns(options.threads);
  std::vector<std::vector<double>> shed_service(options.threads);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < options.threads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = Rng(97).fork(t);
      auto& my_sojourns = sojourns[t];
      auto& my_shed = shed_service[t];
      int variant = static_cast<int>(t);
      while (true) {
        const std::uint64_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
        const auto scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(slot) * interval));
        if (scheduled >= end) return;
        std::this_thread::sleep_until(scheduled);
        if (invalidate_all_at_seconds >= 0.0 &&
            std::chrono::duration<double>(Clock::now() - start).count() >=
                invalidate_all_at_seconds &&
            !invalidated.exchange(true)) {
          for (const auto& site : sites) origin.invalidate_host(site.host);
        }
        const std::size_t rank = rng.zipf(sites.size(), options.zipf_s);
        const auto issued = Clock::now();
        const auto response = origin.handle(make_request(sites[rank - 1].host, variant++));
        const auto finished = Clock::now();
        my_sojourns.push_back(
            std::chrono::duration<double, std::milli>(finished - scheduled).count());
        if (response.status != 200) {
          errors.fetch_add(1, std::memory_order_relaxed);
        } else if (response.header("Retry-After") != nullptr) {
          shed.fetch_add(1, std::memory_order_relaxed);
          my_shed.push_back(std::chrono::duration<double, std::milli>(finished - issued).count());
        } else {
          good.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();

  std::vector<double> all_sojourns, all_shed;
  for (auto& s : sojourns) all_sojourns.insert(all_sojourns.end(), s.begin(), s.end());
  for (auto& s : shed_service) all_shed.insert(all_shed.end(), s.begin(), s.end());

  OpenLoopResult result;
  result.rate_rps = rate_rps;
  result.sent = all_sojourns.size();
  result.good = good.load();
  result.shed = shed.load();
  result.errors = errors.load();
  result.elapsed_seconds = elapsed;
  result.sojourn_p50_ms = percentile(all_sojourns, 0.50);
  result.sojourn_p99_ms = percentile(all_sojourns, 0.99);
  result.sojourn_p999_ms = percentile(all_sojourns, 0.999);
  result.shed_service_p99_ms = percentile(all_shed, 0.99);
  result.shed_service_p999_ms = percentile(all_shed, 0.999);
  const serving::MetricsSnapshot metrics = origin.metrics();
  result.internal_errors = metrics.internal_errors;
  result.stale_served = metrics.ladder_stale;
  result.refresh_sheds = metrics.stale_refresh_sheds;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view prefix) -> const char* {
      return arg.substr(prefix.size()).data();
    };
    if (arg.starts_with("--sites=")) {
      options.sites = static_cast<std::size_t>(std::strtoul(value("--sites="), nullptr, 10));
    } else if (arg.starts_with("--threads=")) {
      options.threads = static_cast<std::size_t>(std::strtoul(value("--threads="), nullptr, 10));
    } else if (arg.starts_with("--seconds=")) {
      options.seconds = std::strtod(value("--seconds="), nullptr);
    } else if (arg.starts_with("--zipf=")) {
      options.zipf_s = std::strtod(value("--zipf="), nullptr);
    } else if (arg.starts_with("--json=")) {
      options.json_path = std::string(arg.substr(7));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("# bench_serve_overload: %zu sites, %zu generator threads, %.2fs per phase, "
              "Zipf(%.2f), plane capacity=%zu workers=%d\n",
              options.sites, options.threads, options.seconds, options.zipf_s, kQueueCapacity,
              kQueueWorkers);
  std::printf("# generating corpus...\n");
  const auto sites = make_corpus(options);

  // Phase A: what can the build plane actually sustain?
  const double capacity_rps = measure_capacity(sites, options);
  std::printf("# build-plane capacity: %.1f req/s (cold builds, %d workers)\n", capacity_rps,
              kQueueWorkers);

  // Phase B: how fast is shedding when nothing else is going on?
  const double shed_floor_p999_ms = measure_shed_floor_p999_ms(sites);
  const double shed_bound_ms =
      std::max(kShedBoundFloorMs, kShedBoundMargin * shed_floor_p999_ms);
  std::printf("# shed fast path: p99.9 %.3f ms unloaded -> overload bound %.3f ms\n",
              shed_floor_p999_ms, shed_bound_ms);

  // Phase C: the open-loop sweep. Fresh origin per rate so each point starts
  // from the same cold state; the cache admits nothing, so every data-saving
  // request demands a build and the arrival multiple is a true build-plane
  // multiple.
  const std::vector<double> multipliers = {0.5, 1.0, 2.0, 4.0, 10.0};
  std::vector<OpenLoopResult> sweep;
  for (const double m : multipliers) {
    serving::OriginServer origin(sites, uncached_plane_options());
    OpenLoopResult r =
        run_open_loop(origin, sites, m * capacity_rps, options.seconds, options);
    r.multiplier = m;
    sweep.push_back(r);
    std::printf("# %4.1fx done: goodput %.1f req/s, shed %.1f%%, errors %llu\n", m, r.goodput(),
                100.0 * r.shed_rate(), static_cast<unsigned long long>(r.errors));
  }

  // Phase D: invalidation storm against a warm cached origin at 4x build
  // capacity — stale-while-revalidate must hold goodput at cache speed.
  OpenLoopResult storm;
  {
    serving::OriginServer origin(sites, plane_options());
    for (std::size_t i = 0; i < sites.size(); ++i) {  // warm every ladder
      (void)origin.handle(make_request(sites[i].host, 0));
    }
    storm = run_open_loop(origin, sites, 4.0 * capacity_rps, options.seconds, options,
                          options.seconds / 2.0);
    std::printf("# storm done: goodput %.1f req/s, stale served %llu, refresh sheds %llu\n",
                storm.goodput(), static_cast<unsigned long long>(storm.stale_served),
                static_cast<unsigned long long>(storm.refresh_sheds));
  }

  std::printf("\n%-8s %9s %10s %8s %9s %9s %9s %9s %7s\n", "load", "sent", "goodput",
              "shed%", "p50(ms)", "p99(ms)", "p999(ms)", "shedp999", "errors");
  for (const OpenLoopResult& r : sweep) {
    std::printf("%5.1fx   %9llu %10.1f %7.1f%% %9.2f %9.2f %9.2f %9.3f %7llu\n", r.multiplier,
                static_cast<unsigned long long>(r.sent), r.goodput(), 100.0 * r.shed_rate(),
                r.sojourn_p50_ms, r.sojourn_p99_ms, r.sojourn_p999_ms, r.shed_service_p999_ms,
                static_cast<unsigned long long>(r.errors));
  }
  std::printf("storm    %9llu %10.1f %7.1f%% %9.2f %9.2f %9.2f %9.3f %7llu\n",
              static_cast<unsigned long long>(storm.sent), storm.goodput(),
              100.0 * storm.shed_rate(), storm.sojourn_p50_ms, storm.sojourn_p99_ms,
              storm.sojourn_p999_ms, storm.shed_service_p999_ms,
              static_cast<unsigned long long>(storm.errors));

  std::vector<Entry> entries;
  entries.push_back({"capacity/build_rps", "req_per_s", capacity_rps});
  entries.push_back({"shed_fast_path/p999_ms", "ms", shed_floor_p999_ms});
  entries.push_back({"shed_fast_path/bound_ms", "ms", shed_bound_ms});
  const auto label = [](double m) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), m < 1.0 ? "overload_%.1fx" : "overload_%.0fx", m);
    return std::string(buffer);
  };
  for (const OpenLoopResult& r : sweep) {
    const std::string prefix = label(r.multiplier);
    entries.push_back({prefix + "/goodput", "req_per_s", r.goodput()});
    entries.push_back({prefix + "/shed_rate", "ratio", r.shed_rate()});
    entries.push_back({prefix + "/sojourn_p50_ms", "ms", r.sojourn_p50_ms});
    entries.push_back({prefix + "/sojourn_p99_ms", "ms", r.sojourn_p99_ms});
    entries.push_back({prefix + "/sojourn_p999_ms", "ms", r.sojourn_p999_ms});
    entries.push_back({prefix + "/shed_service_p99_ms", "ms", r.shed_service_p99_ms});
    entries.push_back({prefix + "/shed_service_p999_ms", "ms", r.shed_service_p999_ms});
    entries.push_back({prefix + "/errors", "count", static_cast<double>(r.errors)});
  }
  const OpenLoopResult& one_x = sweep[1];
  const OpenLoopResult& four_x = sweep[3];
  const double goodput_ratio =
      one_x.goodput() == 0.0 ? 0.0 : four_x.goodput() / one_x.goodput();
  entries.push_back({"overload_4x_vs_1x_goodput", "ratio", goodput_ratio});
  entries.push_back({"invalidation_storm/goodput", "req_per_s", storm.goodput()});
  entries.push_back({"invalidation_storm/sojourn_p99_ms", "ms", storm.sojourn_p99_ms});
  entries.push_back({"invalidation_storm/errors", "count", static_cast<double>(storm.errors)});
  write_json(options.json_path, entries);
  std::printf("wrote %s\n", options.json_path.c_str());

  // Acceptance: the contract this bench exists to hold.
  int violations = 0;
  const auto fail = [&](const char* format, auto... args) {
    std::fprintf(stderr, format, args...);
    ++violations;
  };
  if (four_x.errors != 0 || four_x.internal_errors != 0) {
    fail("ACCEPTANCE: 4x overload produced %llu non-200 answers, %llu internal errors "
         "(both must be 0)\n",
         static_cast<unsigned long long>(four_x.errors),
         static_cast<unsigned long long>(four_x.internal_errors));
  }
  if (four_x.goodput() < 0.8 * one_x.goodput()) {
    fail("ACCEPTANCE: 4x goodput %.1f req/s fell below 80%% of 1x goodput %.1f req/s "
         "(congestion collapse)\n",
         four_x.goodput(), one_x.goodput());
  }
  if (four_x.shed > 0 && four_x.shed_service_p999_ms > shed_bound_ms) {
    fail("ACCEPTANCE: 4x shed-path p99.9 %.3f ms exceeds the fast-path bound %.3f ms\n",
         four_x.shed_service_p999_ms, shed_bound_ms);
  }
  if (storm.errors != 0 || storm.internal_errors != 0) {
    fail("ACCEPTANCE: invalidation storm produced %llu non-200 answers, %llu internal "
         "errors (both must be 0)\n",
         static_cast<unsigned long long>(storm.errors),
         static_cast<unsigned long long>(storm.internal_errors));
  }
  if (violations == 0) std::printf("acceptance: all overload contracts held\n");
  return violations == 0 ? 0 : 1;
}
