// Request-scoped tracing: a thread-safe Tracer producing nested RAII Spans
// on a monotonic clock, with an explicit TraceContext that propagates across
// threads (DESIGN.md "Tracing & flight recorder").
//
// Where the metrics registry (metrics.h) answers "how is the system doing in
// aggregate", the tracer answers "where did *this* request / compile spend
// its time": every serve::Request carries a TraceContext from admission to
// response, the compiler's PassManager wraps each pass (and each parallel
// search task) in a span, and the byte-level ProgramExecutor emits coarse
// per-step-group spans. Spans export as Perfetto "X" slice events (plus flow
// arrows linking requeues across failover epochs) merged with the existing
// counter tracks via AppendTracer (src/sim/trace.h).
//
// A span is also the only interval timer: bound to a Histogram, it records
// there the same duration it exports, tracer or not.
//
// Cost discipline: tracing is opt-in per subsystem through a Tracer pointer.
// A null tracer makes every unbound span an inert no-op — StartSpan on an
// inactive context performs no allocation and no locking, so the request hot
// path is untouched when tracing is off. Call sites that format attribute
// values guard on span.active() first. With tracing on, a span costs one
// mutex acquisition at start and one at end.

#ifndef T10_SRC_OBS_SPAN_H_
#define T10_SRC_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/sync.h"

namespace t10 {
namespace obs {

class Histogram;
class Tracer;

// One key=value attribute on a span.
struct SpanAttr {
  std::string key;
  std::string value;
};

// A finished (or still-open, when snapshotted) span as the exporter sees it.
struct SpanRecord {
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root span of its trace.
  std::uint64_t trace_id = 0;   // Request id / compile id; groups spans.
  std::string name;
  std::string track;            // Perfetto lane ("req:7", "compile", ...).
  double start_seconds = 0.0;   // Monotonic, relative to the tracer's epoch.
  double duration_seconds = 0.0;
  std::uint64_t flow_out = 0;   // Non-zero: this span emits flow arrow `id`.
  std::uint64_t flow_in = 0;    // Non-zero: this span receives flow arrow `id`.
  std::vector<SpanAttr> attrs;
};

// One sample of a counter track recorded through the tracer (exported as a
// Perfetto "C" event alongside the spans).
struct CounterSample {
  std::string track;
  double time_seconds = 0.0;
  double value = 0.0;
};

// Explicit propagation handle. Pass by value across threads: a worker that
// receives a TraceContext opens children of the originating span no matter
// which thread runs it. An inactive context (null tracer) makes every
// downstream span inert.
struct TraceContext {
  Tracer* tracer = nullptr;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  // Default lane for child spans; WithTrack re-homes a subtree (e.g. the
  // executor's step groups move from "req:<id>" to "exec.w<worker>").
  std::string track;

  bool active() const { return tracer != nullptr; }

  TraceContext WithTrack(std::string new_track) const {
    TraceContext ctx = *this;
    ctx.track = std::move(new_track);
    return ctx;
  }
};

// RAII span handle. Obtain via StartSpan(ctx, name); the span ends (and its
// record becomes exportable) on destruction or an explicit End(). Movable,
// not copyable. A default-constructed or inactive unbound span no-ops
// everywhere.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return tracer_ != nullptr; }

  // Attaches key=value metadata. Call sites formatting non-trivial values
  // should guard on active() so disabled tracing allocates nothing.
  void AddAttr(const char* key, std::string value);

  // Marks this span as the source / destination of flow arrow `flow_id`
  // (requeue linkage across failover epochs uses the request id).
  void SetFlowOut(std::uint64_t flow_id);
  void SetFlowIn(std::uint64_t flow_id);

  // Context for children of this span (inherits this span's track).
  TraceContext context() const;

  // Seconds since the span started; 0 for an inert or ended span.
  double ElapsedSeconds() const;

  // Ends the span now (idempotent; the destructor calls it) and returns the
  // seconds the histogram recorded and the tracer exported; 0 if inert.
  double End();

 private:
  friend Span StartSpanAt(const TraceContext& ctx, const char* name,
                          std::chrono::steady_clock::time_point start, Histogram* histogram);

  Tracer* tracer_ = nullptr;
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  std::uint64_t span_id_ = 0;
  std::uint64_t trace_id_ = 0;
  std::string track_;
};

// Starts a span under `ctx`, or an inert span when the context is inactive
// and no `histogram` is bound. A bound span records its duration there when
// it ends. The name is a string literal by convention; it is only copied
// when tracing is on.
Span StartSpan(const TraceContext& ctx, const char* name, Histogram* histogram = nullptr);

// As StartSpan, for an interval that began at `start` (queue wait is only
// known at pop time).
Span StartSpanAt(const TraceContext& ctx, const char* name,
                 std::chrono::steady_clock::time_point start, Histogram* histogram = nullptr);

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Root context for a new trace (one request, one compile). `track` is the
  // lane child spans default to.
  TraceContext Root(std::uint64_t trace_id, std::string track);

  // Records an already-measured interval as a finished span. Returns the
  // span id (flow linkage).
  std::uint64_t AddCompleted(const TraceContext& ctx, const char* name,
                             std::chrono::steady_clock::time_point start,
                             std::chrono::steady_clock::time_point end,
                             std::vector<SpanAttr> attrs = {},
                             std::uint64_t flow_out = 0, std::uint64_t flow_in = 0);

  // Appends one sample to counter track `track`, stamped now.
  void CounterSample(const std::string& track, double value);

  // Seconds since the tracer's construction (its exported time origin).
  double SecondsSinceEpoch(std::chrono::steady_clock::time_point t) const;
  double NowSeconds() const;

  // Snapshots. Finished spans sort by (start, span_id); open spans report
  // their elapsed time so far (flight-recorder dumps capture in-flight work).
  std::vector<SpanRecord> FinishedSpans() const;
  std::vector<SpanRecord> OpenSpans() const;
  std::vector<obs::CounterSample> CounterSamples() const;

  std::int64_t num_finished() const;
  std::int64_t num_open() const;

 private:
  friend class Span;
  friend Span StartSpanAt(const TraceContext& ctx, const char* name,
                          std::chrono::steady_clock::time_point start, Histogram* histogram);

  struct OpenSpan {
    SpanRecord record;
    std::chrono::steady_clock::time_point started_at;
  };

  // The span passes its own start and measured duration.
  std::uint64_t Open(const TraceContext& ctx, const char* name,
                     std::chrono::steady_clock::time_point start);
  void EndSpan(std::uint64_t span_id, double duration_seconds);
  void Attr(std::uint64_t span_id, const char* key, std::string value);
  void Flow(std::uint64_t span_id, std::uint64_t flow_id, bool out);

  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_span_id_{1};

  mutable Mutex mu_{"obs.tracer.mu"};
  std::map<std::uint64_t, OpenSpan> open_ T10_GUARDED_BY(mu_);
  std::vector<SpanRecord> finished_ T10_GUARDED_BY(mu_);
  std::vector<obs::CounterSample> counters_ T10_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace t10

#endif  // T10_SRC_OBS_SPAN_H_
