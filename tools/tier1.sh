#!/usr/bin/env bash
# Tier-1 gate: the full test suite in the standard configuration, plus
# originbench's smoke and oracle tests, plus the robustness, serving,
# asset-store, rANS-coder, markup, quality, HTTP, property and thread-pool
# suites under ASan+UBSan (fault injection, eviction churn, the origin's
# uncached-reference oracle through the asset store, attacker-controlled
# entropy-coded payloads and request heads, the length-prefixed AWML parser
# on truncated or tampered blobs, the per-build QFS memo's stored views, the
# bilinear kernel's row cache, the renderer's scaled-image memo, the ladder
# snapshot/adopt round trip and a local pool's destructor exercise the paths
# where lifetime and UB bugs hide; the SSIM, raster, PNG-filter and variant
# suites drive the vector kernels' row-end loads and scalar tails), plus the
# full suite under UBSan alone (cheap enough to run everything), plus the
# serving suite, the rANS coder, the thread pool, the pipeline and the
# request context under TSan (the tier cache, single-flight, and the
# content-addressed asset store are the concurrent core; the coder's
# thread-local scratch must stay race-free under the ladder's worker pool;
# parallel_for's late runners must never touch a returned caller's state; a
# 4-thread LadderCache::prewarm must match the serial build, and its
# workers' spans share one trace buffer).
# Every ctest run carries a per-test timeout so a deadline-propagation bug
# hangs the suite loudly instead of forever.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
(cd build && ctest --output-on-failure --timeout 300 -j "$(nproc)")

# originbench builds its own Release copy of src/ against the OriginServer
# API; its smoke test runs every workload briefly and its oracle self-test,
# so an API or answer change that breaks the benchmark fails here.
python3 -m unittest discover -s originbench -p 'test_*.py'

cmake -B build-asan -S . -DAW4A_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target robustness_test serving_test serving_asset_store_test imaging_ans_test web_markup_test core_quality_test net_http_test property_fuzz_test imaging_resize_test web_render_test imaging_fingerprint_test imaging_ssim_test imaging_raster_test imaging_codec_detail_test imaging_variants_test util_thread_pool_test >/dev/null
(cd build-asan && ctest --output-on-failure --timeout 300 -R '^(robustness_test|serving_test|serving_asset_store_test|imaging_ans_test|web_markup_test|core_quality_test|net_http_test|property_fuzz_test|imaging_resize_test|web_render_test|imaging_fingerprint_test|imaging_ssim_test|imaging_raster_test|imaging_codec_detail_test|imaging_variants_test|util_thread_pool_test)$')

cmake -B build-ubsan -S . -DAW4A_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j >/dev/null
(cd build-ubsan && ctest --output-on-failure --timeout 300 -j "$(nproc)")

cmake -B build-tsan -S . -DAW4A_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target serving_test serving_stress_test serving_overload_test serving_asset_store_test imaging_ans_test util_thread_pool_test core_pipeline_test obs_context_test >/dev/null
(cd build-tsan && ctest --output-on-failure --timeout 300 -R '^(serving_(test|stress_test|overload_test|asset_store_test)|imaging_ans_test|util_thread_pool_test|core_pipeline_test|obs_context_test)$')

# Release-mode perf smoke: the cold-build fast path must keep its speedups
# (bench_perf_pipeline exits nonzero if any build mode, the integral SSIM,
# the factored encode ladder, or a tier's memoized QFS diverges from its
# reference) and the serving build plane must keep its overload contract
# (bench_serve_overload exits nonzero when 4x overload produces any non-200
# answer, drops goodput below 80% of 1x, or blows the shed fast-path
# bound). Fresh numbers are measured into a scratch file first and gated
# against the committed trajectory by
# bench_guard (>25% regression on a guarded metric fails the gate); only
# then do they overwrite the repo-root JSONs.
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perf -j --target bench_perf_pipeline bench_serve_overload bench_asset_dedup bench_ext04_ultra_low_tiers >/dev/null
fresh_dir="$(mktemp -d)"
trap 'rm -rf "$fresh_dir"' EXIT
./build-perf/bench/bench_perf_pipeline --repeat=2 --json="$fresh_dir/BENCH_pipeline.json"
./build-perf/bench/bench_serve_overload --json="$fresh_dir/BENCH_serving.json"
# bench_asset_dedup exits nonzero on its own acceptance criteria (< 20%
# bytes/time saved at 30% duplication, or the store changing any served
# length); the guard then pins the bytes-built trajectory, which is a
# deterministic function of the corpus — regressions here are algorithmic,
# never noise.
./build-perf/bench/bench_asset_dedup --json="$fresh_dir/BENCH_dedup.json"
# bench_ext04 exits nonzero on its own acceptance criteria (markup tier mean
# savings < 85%, markup shallower than the image ladder on any page, ultra
# tiers losing PAW reachability in any band, or a rewrite-blob round-trip
# mismatch); the guard then pins the markup reduction and build-time
# trajectories, deterministic functions of the seeded corpus.
./build-perf/bench/bench_ext04_ultra_low_tiers --json="$fresh_dir/BENCH_ultra.json"
python3 tools/bench_guard.py \
  --committed BENCH_pipeline.json --fresh "$fresh_dir/BENCH_pipeline.json" \
  --metric cold_build_tiers_shared_cache --metric cold_build_tiers_qfs \
  --metric ssim_dense_integral \
  --metric encode_ladder_rans --metric decode_ladder_huffman \
  --metric decode_ladder_rans --metric rans_payload_reduction \
  --metric 'rans_decode_mb_per_s:higher'
python3 tools/bench_guard.py \
  --committed BENCH_serving.json --fresh "$fresh_dir/BENCH_serving.json" \
  --metric 'overload_2x/goodput' \
  --metric 'overload_4x/shed_service_p99_ms' \
  --metric 'overload_4x/shed_rate:lower'
python3 tools/bench_guard.py \
  --committed BENCH_dedup.json --fresh "$fresh_dir/BENCH_dedup.json" \
  --metric 'dedup_30/bytes_built:lower' \
  --metric 'dedup_30/bytes_saved_ratio'
# Wider tolerance here: markup builds are sub-millisecond, so scheduler
# noise dominates the build-time metric at the default 25%; an algorithmic
# regression overshoots 50% by orders of magnitude anyway.
python3 tools/bench_guard.py \
  --committed BENCH_ultra.json --fresh "$fresh_dir/BENCH_ultra.json" \
  --metric 'ultra_low/bytes_reduction' \
  --metric 'ultra_low/markup_build_ms' \
  --metric 'ultra_low/paw_reachable_ratio' \
  --tolerance 0.5
cp "$fresh_dir/BENCH_pipeline.json" BENCH_pipeline.json
cp "$fresh_dir/BENCH_serving.json" BENCH_serving.json
cp "$fresh_dir/BENCH_dedup.json" BENCH_dedup.json
cp "$fresh_dir/BENCH_ultra.json" BENCH_ultra.json

echo "tier1: OK"
