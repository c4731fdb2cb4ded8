#include "obs/context.h"

#include <chrono>
#include <cstdio>

#include "util/error.h"

namespace aw4a::obs {
namespace {

double steady_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void TraceBuffer::add(const Span& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> TraceBuffer::snapshot() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

std::size_t TraceBuffer::size() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

std::string TraceBuffer::to_json() const {
  const std::vector<Span> spans = snapshot();
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += spans[i].name;  // literal span names: no escaping needed
    out += "\",\"start\":";
    std::snprintf(buf, sizeof(buf), "%.6f", spans[i].start_seconds);
    out += buf;
    out += ",\"duration\":";
    std::snprintf(buf, sizeof(buf), "%.9f", spans[i].duration_seconds);
    out += buf;
    out += '}';
  }
  out += ']';
  return out;
}

const RequestContext& RequestContext::none() {
  static const RequestContext empty;
  return empty;
}

RequestContext RequestContext::with_clock(std::function<double()> clock) const {
  RequestContext out = *this;
  out.clock_ = std::move(clock);
  return out;
}

RequestContext RequestContext::with_deadline_after(double seconds) const {
  RequestContext out = *this;
  out.deadline_at_ = out.now() + seconds;
  return out;
}

RequestContext RequestContext::with_shared_deadline(
    const std::atomic<double>* at_seconds) const {
  RequestContext out = *this;
  out.shared_deadline_ = at_seconds;
  return out;
}

RequestContext RequestContext::with_trace(TraceBuffer* trace) const {
  RequestContext out = *this;
  out.trace_ = trace;
  return out;
}

RequestContext RequestContext::with_sink(SpanSink* sink) const {
  RequestContext out = *this;
  out.sink_ = sink;
  return out;
}

double RequestContext::now() const { return clock_ ? clock_() : steady_seconds(); }

double RequestContext::deadline_at() const {
  if (shared_deadline_ != nullptr) {
    return shared_deadline_->load(std::memory_order_relaxed);
  }
  return deadline_at_;
}

bool RequestContext::has_deadline() const {
  return deadline_at() != std::numeric_limits<double>::infinity();
}

double RequestContext::remaining() const {
  const double at = deadline_at();
  if (at == std::numeric_limits<double>::infinity()) return at;
  return at - now();
}

void RequestContext::check(const char* what) const {
  if (expired()) {
    throw DeadlineExceeded(std::string("deadline exceeded in ") + what);
  }
}

}  // namespace aw4a::obs
