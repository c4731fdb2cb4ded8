#include "serving/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace aw4a::serving {
namespace {

/// Rank-q estimate over the bucket counts: the geometric midpoint of the
/// bucket holding the ceil(q * total)-th sample, clamped to the observed max
/// (the midpoint of a sparsely filled top bucket can overshoot it).
double percentile(const std::array<std::uint64_t, 64>& counts, std::uint64_t total, double q,
                  int min_exp, double observed_max) {
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (cumulative >= target) {
      return std::min(observed_max, std::exp2(static_cast<double>(b) + min_exp + 0.5));
    }
  }
  return observed_max;
}

}  // namespace

int Histogram::bucket_of(double value) {
  if (!(value > 0.0)) return 0;
  const int exp = static_cast<int>(std::floor(std::log2(value)));
  return std::clamp(exp - kMinExp, 0, kBuckets - 1);
}

void Histogram::record(double value) {
  buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(1, std::memory_order_relaxed);
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (seen < value && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  HistogramSnapshot out;
  out.count = total;
  out.sum = sum_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  out.mean = total == 0 ? 0.0 : out.sum / static_cast<double>(total);
  out.p50 = percentile(counts, total, 0.50, kMinExp, out.max);
  out.p90 = percentile(counts, total, 0.90, kMinExp, out.max);
  out.p99 = percentile(counts, total, 0.99, kMinExp, out.max);
  return out;
}

void StageBreakdown::on_span(const char* name, double duration_seconds) {
  // Route on the leading name component (the span naming convention in
  // obs/context.h): "stage2.hbs" and "stage2.grid" both mean Stage-2 time.
  const auto starts_with = [&](const char* prefix) {
    return std::strncmp(name, prefix, std::strlen(prefix)) == 0;
  };
  if (starts_with("stage2")) {
    stage2.record(duration_seconds);
  } else if (starts_with("stage1")) {
    stage1.record(duration_seconds);
  } else if (starts_with("ssim")) {
    ssim.record(duration_seconds);
  } else if (starts_with("encode")) {
    encode.record(duration_seconds);
  }
}

MetricsSnapshot ServingMetrics::snapshot() const {
  const auto load = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  MetricsSnapshot out;
  out.requests_total = load(requests_total);
  out.served_original = load(served_original);
  out.served_paw_tier = load(served_paw_tier);
  out.served_preference_tier = load(served_preference_tier);
  out.served_degraded = load(served_degraded);
  out.served_shed_degraded = load(served_shed_degraded);
  out.ladder_cached = load(ladder_cached);
  out.ladder_stale = load(ladder_stale);
  out.ladder_built = load(ladder_built);
  out.served_kind_image = load(served_kind_image);
  out.served_kind_text_only = load(served_kind_text_only);
  out.served_kind_markup_rewrite = load(served_kind_markup_rewrite);
  out.stats_requests = load(stats_requests);
  out.trace_requests = load(trace_requests);
  out.not_found = load(not_found);
  out.bad_method = load(bad_method);
  out.bad_request = load(bad_request);
  out.internal_errors = load(internal_errors);
  out.builds_started = load(builds_started);
  out.builds_failed = load(builds_failed);
  out.stale_refreshes_queued = load(stale_refreshes_queued);
  out.stale_refresh_sheds = load(stale_refresh_sheds);
  out.build_seconds = build_seconds.snapshot();
  out.served_page_bytes = served_page_bytes.snapshot();
  out.stage1_seconds = stage_breakdown.stage1.snapshot();
  out.stage2_seconds = stage_breakdown.stage2.snapshot();
  out.ssim_seconds = stage_breakdown.ssim.snapshot();
  out.encode_seconds = stage_breakdown.encode.snapshot();
  return out;
}

}  // namespace aw4a::serving
