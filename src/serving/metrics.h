// Serving-path observability: lock-cheap counters plus log-bucketed
// histograms, aggregated into one snapshot and the /aw4a/stats JSON body.
//
// Everything here is safe to record from many serving threads at once. A
// counter bump is one relaxed atomic add; a histogram record is one relaxed
// add plus CAS loops on the running sum and max — no mutex anywhere, so the
// metrics never serialize the serving threads they observe.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "obs/context.h"

namespace aw4a::serving {

/// Point-in-time view of one Histogram. Percentiles are bucket estimates
/// (the geometric midpoint of the log2 bucket holding the rank), accurate
/// to the bucket width: right for "is p99 build latency milliseconds or
/// seconds", not for microbenchmark deltas.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Concurrent log2-bucketed histogram. One bucket per power of two covers
/// microsecond latencies and multi-gigabyte sizes with the same 64 slots.
class Histogram {
 public:
  /// Records one sample. Values <= 0 land in the lowest bucket; values
  /// above the top bucket clamp into it (sum and max stay exact).
  void record(double value);

  /// Consistent within a bucket, not across fields: samples recorded while
  /// snapshotting may appear in count but not yet in sum.
  HistogramSnapshot snapshot() const;

 private:
  /// Bucket b spans [2^(b+kMinExp), 2^(b+1+kMinExp)): from 2^-20 (~1 us in
  /// seconds, sub-byte in bytes) to 2^44 (~17 TB) — both units this
  /// subsystem records fit without configuration.
  static constexpr int kBuckets = 64;
  static constexpr int kMinExp = -20;
  static int bucket_of(double value);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// Per-stage latency histograms, fed by the span API: an OriginServer hands
/// each request context this sink, so every span the pipeline emits — in any
/// serving thread, including single-flight leaders building cold tiers —
/// lands in the stage histogram matching its leading name component
/// ("stage1", "stage2.hbs" and friends, "ssim", "encode.webp" ...). Spans
/// outside those families (cache probes, whole-build envelopes) are ignored:
/// the breakdown answers "where does transcode time go", not "what happened".
class StageBreakdown final : public obs::SpanSink {
 public:
  void on_span(const char* name, double duration_seconds) override;

  Histogram stage1;
  Histogram stage2;  // all Stage-2 solvers: hbs/rbr/grid/knapsack
  Histogram ssim;
  Histogram encode;  // all codecs: encode.jpeg/png/webp
};

/// Counter totals of one OriginServer in plain ints (see
/// ServingMetrics::snapshot). The five served_* rows partition the page
/// answers; the non-page rows (stats_requests .. internal_errors) account
/// for the rest of requests_total.
struct MetricsSnapshot {
  std::uint64_t requests_total = 0;
  // Page answers by decision kind (core::ServeOutcome::Served).
  std::uint64_t served_original = 0;
  std::uint64_t served_paw_tier = 0;
  std::uint64_t served_preference_tier = 0;
  std::uint64_t served_degraded = 0;
  /// Degraded answers caused by build-queue admission shedding (disjoint
  /// from served_degraded, which counts build/deadline failures).
  std::uint64_t served_shed_degraded = 0;
  // Where the ladder behind each tier answer (paw or preference) came from.
  // Partition: served_paw_tier + served_preference_tier ==
  // ladder_cached + ladder_stale + ladder_built.
  std::uint64_t ladder_cached = 0;  ///< fresh cache hit
  std::uint64_t ladder_stale = 0;   ///< stale hit (refresh queued behind it)
  std::uint64_t ladder_built = 0;   ///< built this flight
  // Rung kind of the tier behind each tier answer (core::TierKind).
  // Partition: served_paw_tier + served_preference_tier ==
  // served_kind_image + served_kind_text_only + served_kind_markup_rewrite.
  std::uint64_t served_kind_image = 0;
  std::uint64_t served_kind_text_only = 0;
  std::uint64_t served_kind_markup_rewrite = 0;
  // Non-page answers.
  std::uint64_t stats_requests = 0;
  std::uint64_t trace_requests = 0;
  std::uint64_t not_found = 0;
  std::uint64_t bad_method = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t internal_errors = 0;
  // Tier-ladder builds.
  std::uint64_t builds_started = 0;
  std::uint64_t builds_failed = 0;
  // Stale-while-revalidate refresh plane.
  std::uint64_t stale_refreshes_queued = 0;  ///< detached rebuilds admitted
  std::uint64_t stale_refresh_sheds = 0;     ///< refreshes refused (rate bound)
  HistogramSnapshot build_seconds;
  HistogramSnapshot served_page_bytes;
  // Per-stage transcode latency (the /aw4a/stats "stage_breakdown" block).
  HistogramSnapshot stage1_seconds;
  HistogramSnapshot stage2_seconds;
  HistogramSnapshot ssim_seconds;
  HistogramSnapshot encode_seconds;
};

/// The atomic counters behind MetricsSnapshot. Fields are public by design:
/// call sites bump them with fetch_add(1, relaxed) where the event happens.
struct ServingMetrics {
  std::atomic<std::uint64_t> requests_total{0};
  std::atomic<std::uint64_t> served_original{0};
  std::atomic<std::uint64_t> served_paw_tier{0};
  std::atomic<std::uint64_t> served_preference_tier{0};
  std::atomic<std::uint64_t> served_degraded{0};
  std::atomic<std::uint64_t> served_shed_degraded{0};
  std::atomic<std::uint64_t> ladder_cached{0};
  std::atomic<std::uint64_t> ladder_stale{0};
  std::atomic<std::uint64_t> ladder_built{0};
  std::atomic<std::uint64_t> served_kind_image{0};
  std::atomic<std::uint64_t> served_kind_text_only{0};
  std::atomic<std::uint64_t> served_kind_markup_rewrite{0};
  std::atomic<std::uint64_t> stats_requests{0};
  std::atomic<std::uint64_t> trace_requests{0};
  std::atomic<std::uint64_t> not_found{0};
  std::atomic<std::uint64_t> bad_method{0};
  std::atomic<std::uint64_t> bad_request{0};
  std::atomic<std::uint64_t> internal_errors{0};
  std::atomic<std::uint64_t> builds_started{0};
  std::atomic<std::uint64_t> builds_failed{0};
  std::atomic<std::uint64_t> stale_refreshes_queued{0};
  std::atomic<std::uint64_t> stale_refresh_sheds{0};
  Histogram build_seconds;
  Histogram served_page_bytes;
  StageBreakdown stage_breakdown;

  /// Each field is individually exact; cross-field identities can be off by
  /// whatever requests are in flight during the read.
  MetricsSnapshot snapshot() const;
};

}  // namespace aw4a::serving
