// Cross-site dedup benchmark of the content-addressed asset store.
//
// The tier cache keys on page identity, so two sites embedding the same CDN
// logo each pay a full ladder build. The asset store keys built families on
// asset *content*; this bench measures what that buys at realistic cross-site
// duplication rates. For each duplication rate in {0%, 10%, 30%} it generates
// a corpus with the dataset layer's shared-asset pool, then cold-builds every
// site twice — once through a default OriginServer (store ON), once as the
// reference build with nothing shared (store OFF: Aw4aPipeline::build_tiers
// without an asset source, answered by core::answer_page_request) — and
// reports:
//
//   dedup_<pct>/bytes_built        encoder output bytes with the store ON
//   dedup_<pct>/bytes_built_off    the same for the reference (baseline)
//   dedup_<pct>/bytes_saved_ratio  1 - on/off (higher is better)
//   dedup_<pct>/cold_build_ms      serial cold pass wall time, store ON:
//                                  the sum over sites of each site's median
//                                  over --repeat passes, each pass on a
//                                  fresh origin
//   dedup_<pct>/cold_build_ms_off  the same for the reference; on and off
//                                  passes alternate
//   dedup_<pct>/exact_hits         content-identical reuse during the pass
//   dedup_<pct>/footprint_bytes    resident store bytes after the pass
//   dedup_<pct>/realized_dup_rate  duplicate fraction actually generated
//
// Bytes built come from imaging::build_work_stats() (process-wide encoder
// counters), so the pass runs strictly serially: one request per site, one
// build at a time — the numbers are a deterministic function of the corpus.
// The reference enumerates lazily, as served builds do: only the families
// its solver asks for. A store miss runs VariantLadder::warm instead (the
// WebP transcode and both resolution families — what a later hit adopts).
//
// Exit status is the acceptance check (run by tier1.sh): non-zero when the
// 30% row saves less than 20% of bytes built or of cold-build time, or when
// any site's served content length differs between the origin and the
// reference at any rate (the store must never change outcomes, only costs).
//
//   build/bench/bench_asset_dedup [--sites=24] [--repeat=5]
//       [--json=BENCH_dedup.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "core/server.h"
#include "dataset/corpus.h"
#include "imaging/variants.h"
#include "serving/origin.h"
#include "util/rng.h"

namespace {

using namespace aw4a;
using bench::Entry;
using bench::write_json;
using Clock = std::chrono::steady_clock;

struct BenchOptions {
  std::size_t sites = 24;
  int repeat = 5;
  std::string json_path = "BENCH_dedup.json";
};

std::vector<serving::OriginSite> make_corpus(double duplication_rate,
                                             const BenchOptions& options) {
  dataset::CorpusGenerator gen(dataset::CorpusOptions{
      .seed = 4242,
      .rich = true,
      .cross_site_duplication_rate = duplication_rate,
  });
  Rng rng(4242);
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

/// Duplicate fraction the corpus actually realized: rich image objects whose
/// SourceImage is a repeat of one already seen anywhere in the corpus.
double realized_duplication(const std::vector<serving::OriginSite>& sites) {
  std::unordered_map<const imaging::SourceImage*, int> seen;
  std::uint64_t total = 0;
  std::uint64_t duplicates = 0;
  for (const auto& site : sites) {
    for (const auto& object : site.page.objects) {
      if (object.type != web::ObjectType::kImage || object.image == nullptr) continue;
      ++total;
      if (seen[object.image.get()]++ > 0) ++duplicates;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(duplicates) / static_cast<double>(total);
}

net::HttpRequest make_request(const std::string& host) {
  net::HttpRequest request;
  request.headers.push_back({"Host", host});
  request.headers.push_back({"Save-Data", "on"});
  request.headers.push_back({"AW4A-Savings", "50"});
  return request;
}

struct ColdPassResult {
  std::uint64_t bytes_built = 0;  ///< encoder output during the pass
  std::uint64_t encodes = 0;
  std::vector<double> site_ms;    ///< per site build time
  double wall_ms = 0.0;           ///< sum over sites of the median site_ms
  std::vector<Bytes> content_lengths;  ///< per site
  serving::AssetStoreStats store;
  int errors = 0;
};

/// The store-OFF answer: the site's ladder built with nothing shared,
/// enumerated lazily, answered like the origin would answer it.
net::HttpResponse reference_answer(const serving::OriginSite& site,
                                   const net::HttpRequest& request) {
  const std::vector<core::Tier> tiers = core::Aw4aPipeline(site.config).build_tiers(site.page);
  return core::answer_page_request(site.page, tiers, "", site.plan, request).response;
}

/// One serial cold pass over every site: against a fresh default origin
/// (dedup) or as reference builds (no dedup). One build at a time: the
/// encoder counters and the on/off byte delta are deterministic; only wall
/// time varies from pass to pass.
ColdPassResult run_cold_pass(const std::vector<serving::OriginSite>& sites, bool dedup) {
  ColdPassResult result;
  std::optional<serving::OriginServer> origin;
  if (dedup) origin.emplace(sites);

  const imaging::BuildWorkStats before = imaging::build_work_stats();
  result.content_lengths.reserve(sites.size());
  for (const serving::OriginSite& site : sites) {
    const net::HttpRequest request = make_request(site.host);
    const auto start = Clock::now();
    const auto response = origin ? origin->handle(request) : reference_answer(site, request);
    result.site_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start).count());
    if (response.status != 200) ++result.errors;
    result.content_lengths.push_back(response.content_length);
  }
  const imaging::BuildWorkStats after = imaging::build_work_stats();
  result.bytes_built = after.encoded_bytes - before.encoded_bytes;
  result.encodes = after.encodes - before.encodes;
  if (origin) result.store = origin->asset_store_stats();
  return result;
}

/// Runs `repeat` pairs of passes, store on then off, and returns each mode's
/// first pass with its wall time replaced by the sum over sites of each
/// site's median build time. Alternating the modes spreads drift in the
/// host's speed over both; a per-site median drops a scheduler spike that
/// hits one site in one pass, which a per-pass median cannot.
std::pair<ColdPassResult, ColdPassResult> run_interleaved(
    const std::vector<serving::OriginSite>& sites, int repeat) {
  std::vector<ColdPassResult> on;
  std::vector<ColdPassResult> off;
  for (int r = 0; r < std::max(1, repeat); ++r) {
    on.push_back(run_cold_pass(sites, /*dedup=*/true));
    off.push_back(run_cold_pass(sites, /*dedup=*/false));
  }
  const auto median_sum = [&](const std::vector<ColdPassResult>& passes) {
    double total = 0.0;
    std::vector<double> ms(passes.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      for (std::size_t p = 0; p < passes.size(); ++p) ms[p] = passes[p].site_ms[i];
      std::sort(ms.begin(), ms.end());
      const std::size_t n = ms.size();
      total += n % 2 == 1 ? ms[n / 2] : 0.5 * (ms[n / 2 - 1] + ms[n / 2]);
    }
    return total;
  };
  on.front().wall_ms = median_sum(on);
  off.front().wall_ms = median_sum(off);
  return {std::move(on.front()), std::move(off.front())};
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
    } else if (arg.starts_with("--repeat=")) {
      options.repeat = static_cast<int>(std::strtol(value("--repeat="), nullptr, 10));
    } else if (arg.starts_with("--json=")) {
      options.json_path = value("--json=");
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", std::string(arg).c_str());
      return 2;
    }
  }

  constexpr double kRates[] = {0.0, 0.1, 0.3};
  std::vector<Entry> entries;
  bool accept = true;

  for (const double rate : kRates) {
    const int pct = static_cast<int>(rate * 100.0 + 0.5);
    const std::string prefix = "dedup_" + std::to_string(pct) + "/";
    const auto sites = make_corpus(rate, options);
    const double realized = realized_duplication(sites);

    const auto [on, off] = run_interleaved(sites, options.repeat);

    const double off_bytes = static_cast<double>(off.bytes_built);
    const double saved =
        off_bytes == 0.0 ? 0.0 : 1.0 - static_cast<double>(on.bytes_built) / off_bytes;
    const double time_saved =
        off.wall_ms == 0.0 ? 0.0 : 1.0 - on.wall_ms / off.wall_ms;

    entries.push_back({prefix + "bytes_built", "bytes", static_cast<double>(on.bytes_built)});
    entries.push_back(
        {prefix + "bytes_built_off", "bytes", static_cast<double>(off.bytes_built)});
    entries.push_back({prefix + "bytes_saved_ratio", "ratio", saved});
    entries.push_back({prefix + "cold_build_ms", "ms", on.wall_ms});
    entries.push_back({prefix + "cold_build_ms_off", "ms", off.wall_ms});
    entries.push_back({prefix + "exact_hits", "count", static_cast<double>(on.store.exact_hits)});
    entries.push_back(
        {prefix + "footprint_bytes", "bytes", static_cast<double>(on.store.resident_bytes)});
    entries.push_back({prefix + "realized_dup_rate", "ratio", realized});

    std::printf(
        "dedup %3d%%  realized %.3f  bytes on/off %.3gMB/%.3gMB (saved %4.1f%%)  "
        "cold %7.1f/%7.1fms (saved %4.1f%%)  hits %llu  footprint %.3gMB\n",
        pct, realized, static_cast<double>(on.bytes_built) / 1e6,
        static_cast<double>(off.bytes_built) / 1e6, saved * 100.0, on.wall_ms, off.wall_ms,
        time_saved * 100.0, static_cast<unsigned long long>(on.store.exact_hits),
        static_cast<double>(on.store.resident_bytes) / 1e6);

    // Acceptance: the store must never change what is served...
    if (on.errors != 0 || off.errors != 0) {
      std::fprintf(stderr, "FAIL dedup_%d: non-200 answers (on=%d off=%d)\n", pct, on.errors,
                   off.errors);
      accept = false;
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (on.content_lengths[i] != off.content_lengths[i]) {
        std::fprintf(stderr,
                     "FAIL dedup_%d: site %zu served %llu bytes with the store, %llu in the "
                     "reference\n",
                     pct, i, static_cast<unsigned long long>(on.content_lengths[i]),
                     static_cast<unsigned long long>(off.content_lengths[i]));
        accept = false;
      }
    }
    // ...and at 30% duplication it must pay for itself: >= 20% of bytes
    // built and of cold-build time (ISSUE acceptance threshold).
    if (pct == 30) {
      if (saved < 0.20) {
        std::fprintf(stderr, "FAIL dedup_30: bytes saved %.1f%% < 20%%\n", saved * 100.0);
        accept = false;
      }
      if (time_saved < 0.20) {
        std::fprintf(stderr, "FAIL dedup_30: cold-build time saved %.1f%% < 20%%\n",
                     time_saved * 100.0);
        accept = false;
      }
    }
  }

  write_json(options.json_path, entries);
  std::printf("%s -> %s\n", accept ? "OK" : "FAILED", options.json_path.c_str());
  return accept ? 0 : 1;
}
