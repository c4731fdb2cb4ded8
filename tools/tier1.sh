#!/usr/bin/env bash
# Tier-1 gate: the full test suite in the standard configuration, plus
# originbench's smoke and oracle tests, plus the src/ reachability gate
# (tools/reach.sh), plus the robustness, serving, serving-overload,
# asset-store, rANS-coder, markup, quality, HTTP, property, thread-pool and
# pipeline suites under ASan+UBSan (fault injection, eviction churn, the origin's
# uncached-reference oracle through the asset store, attacker-controlled
# entropy-coded payloads and request heads, the length-prefixed AWML parser
# on truncated or tampered blobs, the per-build QFS memo's stored views, the
# bilinear kernel's row cache, the renderer's scaled-image memo, the ladder
# snapshot/adopt round trip and a local pool's destructor exercise the paths
# where lifetime and UB bugs hide; the SSIM, raster, PNG-filter and variant
# suites drive the vector kernels' row-end loads and scalar tails; the codec,
# encode-once and golden suites drive every format's encode, prepare and
# encode_prepared, including the lossless path; the DCT suite pins the sparse
# and DC-only IDCT kernels the rANS decoder writes straight into its planes),
# plus the full suite under UBSan alone (cheap enough to run everything), plus the
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

# Reachability: every strong src/ function must be linked by an example, a
# bench or originbench, unless tools/reach_allow.txt names it with a reason
# (an -O0 build of the whole tree plus originbench, a few minutes).
tools/reach.sh

cmake -B build-asan -S . -DAW4A_SANITIZE=ON >/dev/null
cmake --build build-asan -j --target robustness_test serving_test serving_overload_test serving_asset_store_test imaging_ans_test web_markup_test core_quality_test net_http_test property_fuzz_test imaging_resize_test web_render_test imaging_fingerprint_test imaging_ssim_test imaging_raster_test imaging_codec_detail_test imaging_variants_test util_thread_pool_test imaging_codec_test imaging_encode_once_test regression_test imaging_dct_test core_pipeline_test >/dev/null
(cd build-asan && ctest --output-on-failure --timeout 300 -R '^(robustness_test|serving_test|serving_overload_test|serving_asset_store_test|imaging_ans_test|web_markup_test|core_quality_test|net_http_test|property_fuzz_test|imaging_resize_test|web_render_test|imaging_fingerprint_test|imaging_ssim_test|imaging_raster_test|imaging_codec_detail_test|imaging_variants_test|util_thread_pool_test|imaging_codec_test|imaging_encode_once_test|regression_test|imaging_dct_test|core_pipeline_test)$')

cmake -B build-ubsan -S . -DAW4A_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j >/dev/null
(cd build-ubsan && ctest --output-on-failure --timeout 300 -j "$(nproc)")

cmake -B build-tsan -S . -DAW4A_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target serving_test serving_stress_test serving_overload_test serving_asset_store_test imaging_ans_test util_thread_pool_test core_pipeline_test obs_context_test >/dev/null
(cd build-tsan && ctest --output-on-failure --timeout 300 -R '^(serving_(test|stress_test|overload_test|asset_store_test)|imaging_ans_test|util_thread_pool_test|core_pipeline_test|obs_context_test)$')

# Release-mode perf smoke: the cold-build fast path must keep its speedups
# (bench_perf_pipeline exits nonzero if any build mode, the served SSIM,
# the factored encode ladder, or a tier's memoized QFS diverges from its
# reference) and the serving build plane must keep its overload contract
# (bench_serve_overload exits nonzero when 4x overload produces any non-200
# answer, drops goodput below 80% of 1x, or blows the shed fast-path
# bound). Fresh numbers are measured into a scratch directory and gated
# against the committed trajectory by bench_guard (>25% regression on a
# guarded metric fails the gate). Every guard runs even when an earlier one
# fails; the gate fails at the end if any did. The committed JSONs are never
# rewritten here. On failure the scratch directory is kept and its path
# printed, so the fresh numbers can be inspected.
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perf -j --target bench_perf_pipeline bench_serve_overload bench_asset_dedup bench_ext04_ultra_low_tiers >/dev/null
fresh_dir="$(mktemp -d)"
trap 'if [ $? -eq 0 ]; then rm -rf "$fresh_dir"; else echo "tier1: fresh bench JSONs kept in $fresh_dir" >&2; fi' EXIT
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
guard_failed=0
python3 tools/bench_guard.py \
  --committed BENCH_pipeline.json --fresh "$fresh_dir/BENCH_pipeline.json" \
  --metric cold_build_tiers_shared_cache --metric cold_build_tiers_qfs \
  --metric ssim_strided_integral \
  --metric encode_ladder_rans \
  --metric decode_ladder_rans --metric rans_payload_reduction \
  --metric 'rans_decode_mb_per_s:higher' || guard_failed=1
python3 tools/bench_guard.py \
  --committed BENCH_serving.json --fresh "$fresh_dir/BENCH_serving.json" \
  --metric 'overload_2x/goodput' \
  --metric 'overload_4x/shed_service_p99_ms' \
  --metric 'overload_4x/shed_rate:lower' || guard_failed=1
python3 tools/bench_guard.py \
  --committed BENCH_dedup.json --fresh "$fresh_dir/BENCH_dedup.json" \
  --metric 'dedup_30/bytes_built:lower' \
  --metric 'dedup_30/bytes_saved_ratio' || guard_failed=1
# Wider tolerance here: markup builds are sub-millisecond, so scheduler
# noise dominates the build-time metric at the default 25%; an algorithmic
# regression overshoots 50% by orders of magnitude anyway.
python3 tools/bench_guard.py \
  --committed BENCH_ultra.json --fresh "$fresh_dir/BENCH_ultra.json" \
  --metric 'ultra_low/bytes_reduction' \
  --metric 'ultra_low/markup_build_ms' \
  --metric 'ultra_low/paw_reachable_ratio' \
  --tolerance 0.5 || guard_failed=1
if [ "$guard_failed" -ne 0 ]; then
  echo "tier1: a bench_guard regression gate failed (see above)" >&2
  exit 1
fi

echo "tier1: OK"
