// Perf-regression bench for the cold-build fast path (PR 3).
//
// Times the three layers the fast path touches, on one rich page with the
// default 4-tier ladder:
//
//   cold build   per-tier fresh LadderCache (the pre-PR build_tiers behavior,
//                reconstructed via the public single-shot API) vs. the shared
//                cross-tier cache, and the shared cache prewarmed on
//                --workers threads before the per-tier solves
//   SSIM         the served ssim() (AVX2 where present) vs. the scalar
//                ssim_reference(), at the served 8x8 / stride-4 geometry
//   breakdown    prewarm stage vs. solver stage of the shared build
//   QFS build    the shared serial build with QFS on (the default config),
//                every tier's memoized QFS checked against a one-shot score
//   encode-once  a full JPEG quality ladder encoded single-shot per rung vs.
//                one prepare() + per-rung encode_prepared() (PR 5), with the
//                rungs checked bit-identical
//   rANS A/B     the same ladder under both entropy backends: encode wall
//                time per backend, the rANS payloads' decode time, and the
//                payload-byte reduction at equal SSIM (decoded rasters are checked
//                pixel-identical across backends, so "equal SSIM" is exact,
//                not approximate). Exits nonzero if rANS saves < 5% payload
//                bytes or its ladder decode exceeds 1.5x its ladder encode.
//
// Every timed pair is also checked for equivalence: tier bytes/QSS must be
// identical across build modes, and the served SSIM must equal the reference
// exactly — a perf bench that silently changed answers would be worse than
// a slow one.
//
// Writes machine-readable results (stable schema: name, unit, value) to
// BENCH_pipeline.json — or --json=PATH — so later PRs have a trajectory.
//
//   build/bench/bench_perf_pipeline [--kb=600] [--repeat=3] [--workers=4]
//                                   [--json=BENCH_pipeline.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.h"
#include "core/pipeline.h"
#include "dataset/corpus.h"
#include "imaging/codec.h"
#include "imaging/ssim.h"
#include "imaging/synth.h"
#include "util/rng.h"

namespace {

using namespace aw4a;
using bench::Entry;
using bench::write_json;

struct BenchOptions {
  double kb = 600.0;
  int repeat = 3;
  unsigned workers = 4;
  std::string json_path = "BENCH_pipeline.json";
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Best-of-`repeat` wall time of fn(), in milliseconds.
double time_best_ms(int repeat, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double elapsed = seconds_since(start);
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best * 1000.0;
}

struct TierSummary {
  Bytes bytes = 0;
  double qss = 0.0;
  std::string algorithm;
  bool met_target = false;
};

bool same(const std::vector<TierSummary>& a, const std::vector<TierSummary>& b,
          const char* what) {
  if (a.size() != b.size()) {
    std::fprintf(stderr, "FAIL: %s: tier count %zu vs %zu\n", what, a.size(), b.size());
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bytes != b[i].bytes || a[i].qss != b[i].qss ||
        a[i].algorithm != b[i].algorithm || a[i].met_target != b[i].met_target) {
      std::fprintf(stderr,
                   "FAIL: %s: tier %zu diverged (bytes %llu vs %llu, qss %.17g vs %.17g, "
                   "algorithm '%s' vs '%s')\n",
                   what, i, static_cast<unsigned long long>(a[i].bytes),
                   static_cast<unsigned long long>(b[i].bytes), a[i].qss, b[i].qss,
                   a[i].algorithm.c_str(), b[i].algorithm.c_str());
      return false;
    }
  }
  return true;
}

TierSummary summarize(const core::TranscodeResult& result) {
  return TierSummary{result.result_bytes, result.quality.qss, result.algorithm,
                     result.met_target};
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--kb=")) {
      options.kb = std::strtod(arg.substr(5).data(), nullptr);
    } else if (arg.starts_with("--repeat=")) {
      options.repeat = static_cast<int>(std::strtol(arg.substr(9).data(), nullptr, 10));
    } else if (arg.starts_with("--workers=")) {
      options.workers =
          static_cast<unsigned>(std::strtoul(arg.substr(10).data(), nullptr, 10));
    } else if (arg.starts_with("--json=")) {
      options.json_path = std::string(arg.substr(7));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("# bench_perf_pipeline: %.0f KB rich page, repeat=%d, prewarm workers=%u\n",
              options.kb, options.repeat, options.workers);
  dataset::CorpusGenerator gen(dataset::CorpusOptions{.seed = 1729, .rich = true});
  Rng rng(1729);
  const web::WebPage page = gen.make_page(rng, from_kb(options.kb), gen.global_profile());

  core::DeveloperConfig config;
  config.measure_qfs = false;  // isolate the enumeration/solver cost under test
  const core::Aw4aPipeline pipeline(config);
  const Bytes original = page.transfer_size();

  std::vector<Entry> entries;
  bool ok = true;

  // --- Cold tier-ladder build: per-tier fresh cache (pre-PR behavior) vs.
  // shared cross-tier cache vs. shared + prewarm. ---
  std::vector<TierSummary> baseline, shared, prewarmed;
  const double baseline_ms = time_best_ms(options.repeat, [&] {
    baseline.clear();
    for (const double reduction : config.tier_reductions) {
      const Bytes target = static_cast<Bytes>(static_cast<double>(original) / reduction);
      baseline.push_back(summarize(pipeline.transcode_to_target(page, target)));
    }
  });
  const double shared_ms = time_best_ms(options.repeat, [&] {
    shared.clear();
    for (const core::Tier& tier : pipeline.build_tiers(page)) {
      shared.push_back(summarize(tier.result));
    }
  });
  // Prewarmed build, split into stages: a shared cache warmed on `workers`
  // threads (all enumeration), then the serial solver passes over it.
  double prewarm_stage_ms = 0.0, solver_stage_ms = 0.0;
  for (int r = 0; r < options.repeat; ++r) {
    core::LadderCache ladders(pipeline.ladder_options());
    auto start = std::chrono::steady_clock::now();
    ladders.prewarm(page, options.workers);
    const double warm = seconds_since(start) * 1000.0;
    start = std::chrono::steady_clock::now();
    prewarmed.clear();
    for (const double reduction : config.tier_reductions) {
      const Bytes target = static_cast<Bytes>(static_cast<double>(original) / reduction);
      prewarmed.push_back(summarize(pipeline.transcode_to_target(page, target, ladders)));
    }
    const double solve = seconds_since(start) * 1000.0;
    if (r == 0 || warm + solve < prewarm_stage_ms + solver_stage_ms) {
      prewarm_stage_ms = warm;
      solver_stage_ms = solve;
    }
  }
  const double prewarm_build_ms = prewarm_stage_ms + solver_stage_ms;
  ok = same(baseline, shared, "shared-cache build vs per-tier baseline") && ok;
  ok = same(baseline, prewarmed, "prewarmed cache vs per-tier baseline") && ok;

  // Headline: the default build_tiers path (shared cache, prewarm off) vs. the
  // pre-PR per-tier rebuild. The prewarmed time is reported alongside — it wins
  // on multi-core origins but regresses on single-core boxes, where the extra
  // threads only add scheduling overhead, so it is not the headline.
  const double build_speedup = shared_ms == 0.0 ? 0.0 : baseline_ms / shared_ms;
  entries.push_back({"cold_build_tiers_per_tier_cache", "ms", baseline_ms});
  entries.push_back({"cold_build_tiers_shared_cache", "ms", shared_ms});
  entries.push_back({"cold_build_tiers_prewarmed", "ms", prewarm_build_ms});
  entries.push_back({"cold_build_speedup", "x", build_speedup});
  entries.push_back({"cold_build_prewarm_stage", "ms", prewarm_stage_ms});
  entries.push_back({"cold_build_solver_stage", "ms", solver_stage_ms});

  // --- The same serial shared-cache build with QFS on (the default config):
  // every tier and both HBS approaches score QFS through the build's memo.
  // Each tier's memoized QFS must equal a fresh one-shot compute_qfs. ---
  const core::Aw4aPipeline qfs_pipeline{core::DeveloperConfig{}};
  std::vector<core::Tier> qfs_tiers;
  const double qfs_build_ms =
      time_best_ms(options.repeat, [&] { qfs_tiers = qfs_pipeline.build_tiers(page); });
  for (std::size_t i = 0; i < qfs_tiers.size(); ++i) {
    const double memoized = qfs_tiers[i].result.quality.qfs;
    const double fresh = core::compute_qfs(qfs_tiers[i].result.served);
    if (memoized != fresh) {
      std::fprintf(stderr, "FAIL: tier %zu memoized QFS %.17g vs one-shot %.17g\n", i,
                   memoized, fresh);
      ok = false;
    }
  }
  entries.push_back({"cold_build_tiers_qfs", "ms", qfs_build_ms});

  // --- SSIM: the served ssim() vs. the scalar reference, on a
  // JPEG-roundtripped photo (realistic correlated distortion). ---
  Rng img_rng(42);
  const imaging::Raster photo = imaging::synth_image(img_rng, imaging::ImageClass::kPhoto,
                                                     448, 336);
  const imaging::Encoded degraded = imaging::encode(imaging::ImageFormat::kJpeg, photo, 40);
  const imaging::PlaneF luma_a = imaging::luma_plane(photo);
  const imaging::PlaneF luma_b = imaging::luma_plane(degraded.decoded);

  double served = 0.0, reference = 0.0;
  const double ssim_strided_ms = time_best_ms(options.repeat, [&] {
    served = imaging::ssim(luma_a, luma_b);
  });
  const double ssim_strided_ref_ms = time_best_ms(options.repeat, [&] {
    reference = imaging::ssim_reference(luma_a, luma_b);
  });
  if (served != reference) {
    std::fprintf(stderr, "FAIL: served SSIM %.17g differs from the reference %.17g\n", served,
                 reference);
    ok = false;
  }
  // Row names kept from the trajectory in BENCH_pipeline.json.
  entries.push_back({"ssim_strided_integral", "ms", ssim_strided_ms});
  entries.push_back({"ssim_strided_reference", "ms", ssim_strided_ref_ms});

  // --- Encode-once quality ladder: N single-shot encodes vs. one prepare()
  // plus N encode_prepared() rungs, on the same photo. The rungs must be
  // bit-identical (bytes and every decoded pixel) — the whole design rests
  // on quality only touching the post-DCT half of the pipeline. ---
  const std::vector<int> ladder_steps = {92, 85, 75, 65, 55, 45, 35};
  const imaging::ImageFormat jpeg = imaging::ImageFormat::kJpeg;
  std::vector<imaging::Encoded> single_shot, factored;
  const double ladder_single_ms = time_best_ms(options.repeat, [&] {
    single_shot.clear();
    for (const int q : ladder_steps) single_shot.push_back(imaging::encode(jpeg, photo, q));
  });
  const double ladder_factored_ms = time_best_ms(options.repeat, [&] {
    factored.clear();
    const imaging::Prepared prep = imaging::prepare(jpeg, photo);
    for (const int q : ladder_steps) factored.push_back(imaging::encode_prepared(prep, q));
  });
  for (std::size_t i = 0; i < ladder_steps.size(); ++i) {
    if (single_shot[i].bytes != factored[i].bytes ||
        single_shot[i].decoded.pixels() != factored[i].decoded.pixels()) {
      std::fprintf(stderr,
                   "FAIL: factored encode diverged from single-shot at q=%d "
                   "(bytes %llu vs %llu)\n",
                   ladder_steps[i], static_cast<unsigned long long>(single_shot[i].bytes),
                   static_cast<unsigned long long>(factored[i].bytes));
      ok = false;
    }
  }
  const double factored_speedup =
      ladder_factored_ms == 0.0 ? 0.0 : ladder_single_ms / ladder_factored_ms;
  entries.push_back({"encode_ladder_single_shot", "ms", ladder_single_ms});
  entries.push_back({"encode_ladder_factored", "ms", ladder_factored_ms});
  entries.push_back({"dct_factored_speedup", "x", factored_speedup});

  // --- rANS entropy backend A/B: the same factored ladder with a real
  // interleaved-rANS payload, and the decode of those payloads back to
  // pixels. The Huffman backend has no bitstream (its payload is an analytic
  // cost), so it has no decode to time. ---
  std::vector<imaging::Encoded> rans_ladder;
  const double ladder_rans_ms = time_best_ms(options.repeat, [&] {
    rans_ladder.clear();
    const imaging::Prepared prep = imaging::prepare(jpeg, photo);
    for (const int q : ladder_steps) {
      rans_ladder.push_back(imaging::encode_prepared(prep, q, imaging::EntropyBackend::kRans));
    }
  });

  // Equal SSIM, proven not measured: entropy coding is lossless, so every
  // rung must reconstruct the exact pixels of its Huffman twin.
  double huff_payload = 0.0, rans_payload = 0.0;
  for (std::size_t i = 0; i < ladder_steps.size(); ++i) {
    if (rans_ladder[i].decoded.pixels() != factored[i].decoded.pixels()) {
      std::fprintf(stderr, "FAIL: rANS rung q=%d decoded differently from Huffman\n",
                   ladder_steps[i]);
      ok = false;
    }
    huff_payload += static_cast<double>(factored[i].payload_bytes());
    rans_payload += static_cast<double>(rans_ladder[i].payload_bytes());
  }
  const double rans_reduction =
      huff_payload == 0.0 ? 0.0 : 1.0 - rans_payload / huff_payload;

  const double decode_rans_ms = time_best_ms(options.repeat, [&] {
    for (const imaging::Encoded& enc : rans_ladder) {
      (void)imaging::lossy_decode(enc.payload);
    }
  });
  // Decode equivalence: each blob decodes to the encoder's exact pixels.
  for (std::size_t i = 0; i < ladder_steps.size(); ++i) {
    if (imaging::lossy_decode(rans_ladder[i].payload).pixels() !=
        rans_ladder[i].decoded.pixels()) {
      std::fprintf(stderr, "FAIL: lossy_decode q=%d diverged from Encoded.decoded\n",
                   ladder_steps[i]);
      ok = false;
    }
  }
  if (rans_reduction < 0.05) {
    std::fprintf(stderr, "FAIL: rANS payload reduction %.1f%% below the 5%% floor\n",
                 rans_reduction * 100.0);
    ok = false;
  }
  if (decode_rans_ms > 1.5 * ladder_rans_ms) {
    std::fprintf(stderr, "FAIL: rANS ladder decode %.2fms exceeds 1.5x encode %.2fms\n",
                 decode_rans_ms, ladder_rans_ms);
    ok = false;
  }
  entries.push_back({"encode_ladder_rans", "ms", ladder_rans_ms});
  entries.push_back({"decode_ladder_rans", "ms", decode_rans_ms});
  entries.push_back({"rans_payload_reduction", "ratio", rans_reduction});

  // Decode throughput in decoded-raster bytes, from the ladder decode above.
  double decoded_bytes = 0.0;
  for (const imaging::Encoded& enc : rans_ladder) {
    decoded_bytes += static_cast<double>(enc.decoded.width()) * enc.decoded.height() *
                     sizeof(imaging::Pixel);
  }
  const double rans_decode_mb_per_s =
      decode_rans_ms == 0.0 ? 0.0 : decoded_bytes / 1.0e6 / (decode_rans_ms / 1.0e3);
  entries.push_back({"rans_decode_mb_per_s", "MB/s", rans_decode_mb_per_s});

  std::printf("\n%-34s %10s %10s\n", "benchmark", "value", "unit");
  for (const Entry& e : entries) {
    std::printf("%-34s %10.3f %10s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::printf("\ncold build: %.1fx faster; rANS payload: %.1f%% smaller at equal SSIM\n",
              build_speedup, rans_reduction * 100.0);

  write_json(options.json_path, entries);
  std::printf("wrote %s\n", options.json_path.c_str());

  if (!ok) {
    std::fprintf(stderr, "bench_perf_pipeline: EQUIVALENCE FAILURE (see above)\n");
    return 1;
  }
  return 0;
}
