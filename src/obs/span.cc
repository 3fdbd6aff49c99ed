#include "src/obs/span.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace t10 {
namespace obs {

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    histogram_ = other.histogram_;
    start_ = other.start_;
    span_id_ = other.span_id_;
    trace_id_ = other.trace_id_;
    track_ = std::move(other.track_);
    other.tracer_ = nullptr;
    other.histogram_ = nullptr;
  }
  return *this;
}

void Span::AddAttr(const char* key, std::string value) {
  if (tracer_ != nullptr) {
    tracer_->Attr(span_id_, key, std::move(value));
  }
}

void Span::SetFlowOut(std::uint64_t flow_id) {
  if (tracer_ != nullptr) {
    tracer_->Flow(span_id_, flow_id, /*out=*/true);
  }
}

void Span::SetFlowIn(std::uint64_t flow_id) {
  if (tracer_ != nullptr) {
    tracer_->Flow(span_id_, flow_id, /*out=*/false);
  }
}

TraceContext Span::context() const {
  TraceContext ctx;
  if (tracer_ != nullptr) {
    ctx.tracer = tracer_;
    ctx.trace_id = trace_id_;
    ctx.parent_span = span_id_;
    ctx.track = track_;
  }
  return ctx;
}

double Span::ElapsedSeconds() const {
  if (tracer_ == nullptr && histogram_ == nullptr) {
    return 0.0;
  }
  return std::max(0.0,
                  std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count());
}

double Span::End() {
  const double seconds = ElapsedSeconds();
  if (histogram_ != nullptr) {
    histogram_->Record(seconds);
    histogram_ = nullptr;
  }
  if (tracer_ != nullptr) {
    tracer_->EndSpan(span_id_, seconds);
    tracer_ = nullptr;
  }
  return seconds;
}

Span StartSpan(const TraceContext& ctx, const char* name, Histogram* histogram) {
  if (ctx.tracer == nullptr && histogram == nullptr) {
    return Span();
  }
  return StartSpanAt(ctx, name, std::chrono::steady_clock::now(), histogram);
}

Span StartSpanAt(const TraceContext& ctx, const char* name,
                 std::chrono::steady_clock::time_point start, Histogram* histogram) {
  Span span;
  span.histogram_ = histogram;
  span.start_ = start;
  if (ctx.tracer != nullptr) {
    span.tracer_ = ctx.tracer;
    span.span_id_ = ctx.tracer->Open(ctx, name, start);
    span.trace_id_ = ctx.trace_id;
    span.track_ = ctx.track;
  }
  return span;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

TraceContext Tracer::Root(std::uint64_t trace_id, std::string track) {
  TraceContext ctx;
  ctx.tracer = this;
  ctx.trace_id = trace_id;
  ctx.parent_span = 0;
  ctx.track = std::move(track);
  return ctx;
}

std::uint64_t Tracer::Open(const TraceContext& ctx, const char* name,
                           std::chrono::steady_clock::time_point start) {
  T10_CHECK(ctx.tracer == this) << "span started under a foreign trace context";
  const std::uint64_t span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  OpenSpan open;
  open.started_at = start;
  open.record.span_id = span_id;
  open.record.parent_id = ctx.parent_span;
  open.record.trace_id = ctx.trace_id;
  open.record.name = name;
  open.record.track = ctx.track;
  open.record.start_seconds = SecondsSinceEpoch(start);
  MutexLock lock(mu_);
  open_.emplace(span_id, std::move(open));
  return span_id;
}

std::uint64_t Tracer::AddCompleted(const TraceContext& ctx, const char* name,
                                   std::chrono::steady_clock::time_point start,
                                   std::chrono::steady_clock::time_point end,
                                   std::vector<SpanAttr> attrs, std::uint64_t flow_out,
                                   std::uint64_t flow_in) {
  T10_CHECK(ctx.tracer == this) << "span recorded under a foreign trace context";
  SpanRecord record;
  record.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  record.parent_id = ctx.parent_span;
  record.trace_id = ctx.trace_id;
  record.name = name;
  record.track = ctx.track;
  record.start_seconds = SecondsSinceEpoch(start);
  record.duration_seconds = std::max(0.0, std::chrono::duration<double>(end - start).count());
  record.attrs = std::move(attrs);
  record.flow_out = flow_out;
  record.flow_in = flow_in;
  const std::uint64_t id = record.span_id;
  MutexLock lock(mu_);
  finished_.push_back(std::move(record));
  return id;
}

void Tracer::CounterSample(const std::string& track, double value) {
  obs::CounterSample sample;
  sample.track = track;
  sample.time_seconds = NowSeconds();
  sample.value = value;
  MutexLock lock(mu_);
  counters_.push_back(std::move(sample));
}

double Tracer::SecondsSinceEpoch(std::chrono::steady_clock::time_point t) const {
  return std::max(0.0, std::chrono::duration<double>(t - epoch_).count());
}

double Tracer::NowSeconds() const {
  return SecondsSinceEpoch(std::chrono::steady_clock::now());
}

std::vector<SpanRecord> Tracer::FinishedSpans() const {
  std::vector<SpanRecord> spans;
  {
    MutexLock lock(mu_);
    spans = finished_;
  }
  std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.start_seconds != b.start_seconds) {
      return a.start_seconds < b.start_seconds;
    }
    return a.span_id < b.span_id;
  });
  return spans;
}

std::vector<SpanRecord> Tracer::OpenSpans() const {
  const auto now = std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans;
  MutexLock lock(mu_);
  spans.reserve(open_.size());
  for (const auto& [id, open] : open_) {
    SpanRecord record = open.record;
    record.duration_seconds =
        std::max(0.0, std::chrono::duration<double>(now - open.started_at).count());
    spans.push_back(std::move(record));
  }
  return spans;  // Map order == span-id order == start order per track.
}

std::vector<CounterSample> Tracer::CounterSamples() const {
  MutexLock lock(mu_);
  return counters_;
}

std::int64_t Tracer::num_finished() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(finished_.size());
}

std::int64_t Tracer::num_open() const {
  MutexLock lock(mu_);
  return static_cast<std::int64_t>(open_.size());
}

void Tracer::EndSpan(std::uint64_t span_id, double duration_seconds) {
  MutexLock lock(mu_);
  auto it = open_.find(span_id);
  T10_CHECK(it != open_.end()) << "span " << span_id << " ended twice";
  SpanRecord record = std::move(it->second.record);
  record.duration_seconds = duration_seconds;
  open_.erase(it);
  finished_.push_back(std::move(record));
}

void Tracer::Attr(std::uint64_t span_id, const char* key, std::string value) {
  MutexLock lock(mu_);
  auto it = open_.find(span_id);
  T10_CHECK(it != open_.end()) << "attribute on ended span " << span_id;
  it->second.record.attrs.push_back(SpanAttr{key, std::move(value)});
}

void Tracer::Flow(std::uint64_t span_id, std::uint64_t flow_id, bool out) {
  MutexLock lock(mu_);
  auto it = open_.find(span_id);
  T10_CHECK(it != open_.end()) << "flow on ended span " << span_id;
  (out ? it->second.record.flow_out : it->second.record.flow_in) = flow_id;
}

}  // namespace obs
}  // namespace t10
