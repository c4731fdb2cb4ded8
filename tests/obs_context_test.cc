// RequestContext / span API contract tests (src/obs/context.h).
//
// These pin the semantics the rest of the codebase leans on: deadline math
// on an injectable clock, the shared-deadline override (the SingleFlight
// waiter-union), check() throwing DeadlineExceeded (and nothing else), and
// the span scope being inert without a destination.
#include "obs/context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/error.h"
#include "util/parallel.h"

namespace aw4a::obs {
namespace {

/// A context on a hand-cranked clock, so deadline tests never sleep.
struct FakeClock {
  double now = 0.0;
  RequestContext context() const {
    return RequestContext().with_clock([this] { return now; });
  }
};

TEST(RequestContext, DefaultHasNoDeadlineNoTracing) {
  const RequestContext& ctx = RequestContext::none();
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_FALSE(ctx.tracing());
  EXPECT_EQ(ctx.remaining(), std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(ctx.check("anywhere"));
}

TEST(RequestContext, DeadlineAfterCountsDownOnTheInjectedClock) {
  FakeClock clock;
  const RequestContext ctx = clock.context().with_deadline_after(5.0);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_DOUBLE_EQ(ctx.remaining(), 5.0);
  clock.now = 4.999;
  EXPECT_FALSE(ctx.expired());
  clock.now = 5.0;
  EXPECT_TRUE(ctx.expired());  // remaining() <= 0 at exactly the deadline
  EXPECT_THROW(ctx.check("stage2"), DeadlineExceeded);
}

TEST(RequestContext, ZeroBudgetIsBornExpired) {
  FakeClock clock;
  const RequestContext ctx = clock.context().with_deadline_after(0.0);
  EXPECT_TRUE(ctx.expired());
  try {
    ctx.check("stage1");
    FAIL() << "should have thrown";
  } catch (const DeadlineExceeded& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("stage1"), std::string::npos) << what;
  }
}

TEST(RequestContext, CheckThrowsDeadlineExceededWhichIsAnError) {
  // The degradation machinery catches `const Error&`; DeadlineExceeded must
  // stay inside that taxonomy or anytime absorption silently breaks.
  FakeClock clock;
  const RequestContext ctx = clock.context().with_deadline_after(-1.0);
  EXPECT_THROW(ctx.check("x"), Error);
}

TEST(RequestContext, SharedDeadlineOverridesOwnAndMovesLive) {
  FakeClock clock;
  std::atomic<double> shared{2.0};
  const RequestContext ctx =
      clock.context().with_deadline_after(10.0).with_shared_deadline(&shared);
  EXPECT_DOUBLE_EQ(ctx.deadline_at(), 2.0);  // shared wins over own
  clock.now = 3.0;
  EXPECT_TRUE(ctx.expired());
  // A joiner with more budget raises the union: the same context un-expires.
  shared.store(8.0);
  EXPECT_FALSE(ctx.expired());
  EXPECT_DOUBLE_EQ(ctx.remaining(), 5.0);
}

TEST(RequestContext, BuildersComposeWithoutMutatingTheSource) {
  FakeClock clock;
  TraceBuffer buffer;
  const RequestContext base = clock.context().with_trace(&buffer);
  const RequestContext derived = base.with_deadline_after(1.0);
  EXPECT_FALSE(base.has_deadline());
  EXPECT_TRUE(derived.has_deadline());
  EXPECT_EQ(derived.trace(), &buffer);  // earlier builder settings carry over
}

TEST(SpanScope, TracingOffRecordsNothing) {
  const RequestContext& ctx = RequestContext::none();
  { AW4A_SPAN(ctx, "stage1"); }
  // Nothing to assert beyond "did not crash": with no destination the scope
  // must not even read the clock (tracing() is false).
  EXPECT_FALSE(ctx.tracing());
}

TEST(SpanScope, SpansLandInTheTraceBufferInCompletionOrder) {
  FakeClock clock;
  TraceBuffer buffer;
  const RequestContext ctx = clock.context().with_trace(&buffer);
  ASSERT_TRUE(ctx.tracing());
  {
    AW4A_SPAN(ctx, "build_tiers");
    clock.now = 1.0;
    {
      AW4A_SPAN(ctx, "stage1");
      clock.now = 1.5;
    }
    clock.now = 4.0;
  }
  const std::vector<Span> spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner scope closes first.
  EXPECT_STREQ(spans[0].name, "stage1");
  EXPECT_DOUBLE_EQ(spans[0].start_seconds, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].duration_seconds, 0.5);
  EXPECT_STREQ(spans[1].name, "build_tiers");
  EXPECT_DOUBLE_EQ(spans[1].start_seconds, 0.0);
  EXPECT_DOUBLE_EQ(spans[1].duration_seconds, 4.0);
}

TEST(SpanScope, SinkReceivesEverySpanAlongsideTheBuffer) {
  struct CountingSink final : SpanSink {
    std::vector<std::string> names;
    void on_span(const char* name, double) override { names.emplace_back(name); }
  };
  FakeClock clock;
  TraceBuffer buffer;
  CountingSink sink;
  const RequestContext ctx = clock.context().with_trace(&buffer).with_sink(&sink);
  { AW4A_SPAN(ctx, "encode.webp"); }
  { AW4A_SPAN(ctx, "ssim"); }
  ASSERT_EQ(sink.names.size(), 2u);
  EXPECT_EQ(sink.names[0], "encode.webp");
  EXPECT_EQ(sink.names[1], "ssim");
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(TraceBuffer, ToJsonIsAnArrayOfNamedSpans) {
  TraceBuffer buffer;
  EXPECT_EQ(buffer.to_json(), "[]");
  buffer.add(Span{"stage2.hbs", 0.25, 0.125});
  const std::string json = buffer.to_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"name\":\"stage2.hbs\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"start\":0.250000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"duration\":0.125000000"), std::string::npos) << json;
}

TEST(TraceBuffer, ConcurrentAddsFromParallelWorkersAllArrive) {
  // The prewarm path emits spans from parallel_for workers; the buffer must
  // take them without loss or tearing.
  TraceBuffer buffer;
  const RequestContext ctx = RequestContext().with_trace(&buffer);
  constexpr std::size_t kSpans = 256;
  parallel_for(
      kSpans, [&](std::size_t) { AW4A_SPAN(ctx, "prewarm"); }, 8);
  EXPECT_EQ(buffer.size(), kSpans);
  for (const Span& span : buffer.snapshot()) EXPECT_STREQ(span.name, "prewarm");
}

}  // namespace
}  // namespace aw4a::obs
