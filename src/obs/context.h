// Request-scoped observability and control: one RequestContext threaded
// explicitly through the pipeline, the solvers, the imaging hot path, and the
// serving components, replacing the per-layer knobs that accumulated there
// (stage2_deadline_seconds re-derived with local steady_clock math, no
// per-stage timing). It carries only what served traffic sets: a time budget
// and somewhere to report spans.
//
// A context carries:
//   - a monotonic deadline (absolute seconds on the context's clock), either
//     its own or a shared atomic (the SingleFlight waiter-union: the leader's
//     build keeps running while ANY waiter still has budget),
//   - span destinations: a per-request TraceBuffer (the /aw4a/trace dump) and
//     a process-lifetime SpanSink (the ServingMetrics stage breakdown).
//
// Contexts are small copyable values. The default-constructed context — also
// RequestContext::none() — has no deadline and no tracing, so defaulted
// `const RequestContext&` parameters keep every pre-existing call site
// byte-for-byte equivalent.
//
// Span naming convention (DESIGN.md §9): dotted lowercase paths, coarse
// stage first — "stage1", "stage2.hbs", "stage2.rbr", "stage2.grid",
// "stage2.knapsack", "ssim", "encode.<fmt>", "prewarm", "build_tiers",
// "serving.build", "serving.cache.fetch", "serving.cache.insert". Sinks
// route on the leading component, so new sub-spans never need sink changes.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

namespace aw4a::obs {

/// One completed span: name (static storage — every call site passes a
/// string literal), start on the context's clock, and duration.
struct Span {
  const char* name = "";
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Per-request span vector. Thread-safe because prewarm workers emit spans
/// concurrently with the request thread; contention is one short mutex hold
/// per span, and only when tracing was requested at all.
class TraceBuffer {
 public:
  void add(const Span& span);
  std::vector<Span> snapshot() const;
  std::size_t size() const;
  /// The /aw4a/trace payload fragment: a JSON array of span objects.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Receiver for span durations that outlives any one request (e.g. the
/// per-stage latency histograms in serving::ServingMetrics). Implementations
/// must be safe to call from many threads at once.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const char* name, double duration_seconds) = 0;
};

class RequestContext {
 public:
  RequestContext() = default;

  /// The canonical empty context: no deadline, no tracing. Use as the default for `const RequestContext&` parameters.
  static const RequestContext& none();

  // --- Builders (value-returning, chainable). ---

  /// Monotonic seconds source; null (the default) reads steady_clock. Set
  /// this before any deadline builder so the deadline lives on this clock.
  RequestContext with_clock(std::function<double()> clock) const;
  /// Deadline `seconds` from now on this context's clock. Negative or zero
  /// means "already expired" (tests exercise a 0-second budget).
  RequestContext with_deadline_after(double seconds) const;
  /// Live deadline shared with other parties (the SingleFlight flight's
  /// waiter-union). Overrides this context's own deadline; the pointee must
  /// outlive every use of the context.
  RequestContext with_shared_deadline(const std::atomic<double>* at_seconds) const;
  RequestContext with_trace(TraceBuffer* trace) const;
  RequestContext with_sink(SpanSink* sink) const;

  // --- Reads. ---

  double now() const;
  /// Absolute deadline (shared wins over own); +inf when none.
  double deadline_at() const;
  bool has_deadline() const;
  /// Seconds of budget left; +inf when no deadline.
  double remaining() const;
  bool expired() const { return remaining() <= 0.0; }
  /// Throws DeadlineExceeded when expired, naming `what` (the
  /// stage being entered). The pipeline converts this into its Stage-1
  /// anytime result; it must never reach the serving path.
  void check(const char* what) const;

  /// True when any span destination is attached — the single branch the
  /// span macro pays when tracing is off.
  bool tracing() const { return trace_ != nullptr || sink_ != nullptr; }
  TraceBuffer* trace() const { return trace_; }
  SpanSink* sink() const { return sink_; }

 private:
  std::function<double()> clock_;  // null = steady_clock seconds
  double deadline_at_ = std::numeric_limits<double>::infinity();
  const std::atomic<double>* shared_deadline_ = nullptr;
  TraceBuffer* trace_ = nullptr;
  SpanSink* sink_ = nullptr;
};

/// RAII span: reads the clock in the constructor and reports to the trace
/// buffer and/or sink in the destructor. When the context has neither
/// destination the constructor stores a null context and both ends are a
/// pointer test — cheap enough for the imaging hot path.
class SpanScope {
 public:
  SpanScope(const RequestContext& ctx, const char* name)
      : ctx_(ctx.tracing() ? &ctx : nullptr), name_(name) {
    if (ctx_ != nullptr) start_ = ctx_->now();
  }
  ~SpanScope() {
    if (ctx_ == nullptr) return;
    const double duration = ctx_->now() - start_;
    if (TraceBuffer* trace = ctx_->trace()) {
      trace->add(Span{name_, start_, duration});
    }
    if (SpanSink* sink = ctx_->sink()) sink->on_span(name_, duration);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const RequestContext* ctx_;
  const char* name_;
  double start_ = 0.0;
};

#define AW4A_SPAN_CONCAT2(a, b) a##b
#define AW4A_SPAN_CONCAT(a, b) AW4A_SPAN_CONCAT2(a, b)
/// Opens a span for the rest of the enclosing scope.
#define AW4A_SPAN(ctx, name) \
  const ::aw4a::obs::SpanScope AW4A_SPAN_CONCAT(aw4a_span_, __LINE__)((ctx), (name))

}  // namespace aw4a::obs
