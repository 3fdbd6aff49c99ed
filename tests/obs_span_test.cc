// Tracer/Span contract tests: RAII lifecycle, parent/child nesting, timing
// monotonicity, cross-thread context propagation (the serving and compiler
// fan-out pattern), flow linkage, the zero-cost inactive path, and the
// Perfetto export schema AppendTracer produces (the CI chaos job parses it
// with jq, so the shape is load-bearing).

#include "src/obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sim/trace.h"
#include "src/util/thread_pool.h"

namespace t10 {
namespace obs {
namespace {

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans, const std::string& name) {
  for (const SpanRecord& span : spans) {
    if (span.name == name) {
      return &span;
    }
  }
  return nullptr;
}

TEST(SpanTest, RootAndNestedChildrenRecordParentIds) {
  Tracer tracer;
  const TraceContext root = tracer.Root(7, "req:7");
  EXPECT_EQ(root.trace_id, 7u);
  EXPECT_EQ(root.parent_span, 0u);
  EXPECT_TRUE(root.active());

  std::uint64_t outer_id = 0;
  {
    Span outer = StartSpan(root, "outer");
    ASSERT_TRUE(outer.active());
    outer_id = outer.context().parent_span;  // Children parent to `outer`.
    Span inner = StartSpan(outer.context(), "inner");
    ASSERT_TRUE(inner.active());
    EXPECT_EQ(inner.context().trace_id, 7u);
  }
  const std::vector<SpanRecord> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* outer = FindSpan(spans, "outer");
  const SpanRecord* inner = FindSpan(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(outer->span_id, outer_id);
  EXPECT_EQ(inner->parent_id, outer->span_id);
  EXPECT_EQ(outer->trace_id, 7u);
  EXPECT_EQ(inner->trace_id, 7u);
  EXPECT_EQ(outer->track, "req:7");
  EXPECT_EQ(inner->track, "req:7");
  EXPECT_EQ(tracer.num_open(), 0);
}

TEST(SpanTest, TimingIsMonotonicAndNested) {
  Tracer tracer;
  const TraceContext root = tracer.Root(1, "t");
  {
    Span outer = StartSpan(root, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      Span inner = StartSpan(outer.context(), "inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<SpanRecord> spans = tracer.FinishedSpans();
  const SpanRecord* outer = FindSpan(spans, "outer");
  const SpanRecord* inner = FindSpan(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(outer->start_seconds, 0.0);
  EXPECT_GT(outer->duration_seconds, 0.0);
  EXPECT_GT(inner->duration_seconds, 0.0);
  // The child starts at or after its parent and ends at or before it.
  EXPECT_GE(inner->start_seconds, outer->start_seconds);
  EXPECT_LE(inner->start_seconds + inner->duration_seconds,
            outer->start_seconds + outer->duration_seconds + 1e-9);
  // FinishedSpans sorts by start time.
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].start_seconds, spans[i - 1].start_seconds);
  }
}

TEST(SpanTest, InactiveContextProducesInertSpans) {
  const TraceContext inactive;  // Null tracer.
  EXPECT_FALSE(inactive.active());
  Span span = StartSpan(inactive, "nothing");
  EXPECT_FALSE(span.active());
  span.AddAttr("key", "value");  // All no-ops.
  span.SetFlowOut(9);
  span.SetFlowIn(9);
  EXPECT_FALSE(span.context().active());
  span.End();
  // A child of an inert span is also inert.
  Span child = StartSpan(span.context(), "child");
  EXPECT_FALSE(child.active());
}

TEST(SpanTest, EndIsIdempotentAndMoveTransfersOwnership) {
  Tracer tracer;
  const TraceContext root = tracer.Root(1, "t");
  Span a = StartSpan(root, "a");
  a.End();
  a.End();  // Second End is a no-op, not a double-finish.
  EXPECT_EQ(tracer.num_finished(), 1);

  Span b = StartSpan(root, "b");
  Span moved = std::move(b);
  EXPECT_TRUE(moved.active());
  EXPECT_FALSE(b.active());  // NOLINT(bugprone-use-after-move)
  b.End();                   // Ending the moved-from shell does nothing.
  EXPECT_EQ(tracer.num_finished(), 1);
  moved.End();
  EXPECT_EQ(tracer.num_finished(), 2);

  // Move-assigning over an open span ends the target first.
  Span c = StartSpan(root, "c");
  Span d = StartSpan(root, "d");
  c = std::move(d);
  EXPECT_EQ(tracer.num_finished(), 3);  // "c" ended by the assignment.
  c.End();
  EXPECT_EQ(tracer.num_finished(), 4);
}

TEST(SpanTest, AttrsAndFlowsLandOnTheRecord) {
  Tracer tracer;
  const TraceContext root = tracer.Root(3, "req:3");
  {
    Span span = StartSpan(root, "execute");
    span.AddAttr("worker", "1");
    span.AddAttr("status", "OK");
    span.SetFlowOut(48);
    span.SetFlowIn(47);
  }
  const std::vector<SpanRecord> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_EQ(spans[0].attrs[0].key, "worker");
  EXPECT_EQ(spans[0].attrs[0].value, "1");
  EXPECT_EQ(spans[0].attrs[1].key, "status");
  EXPECT_EQ(spans[0].flow_out, 48u);
  EXPECT_EQ(spans[0].flow_in, 47u);
}

TEST(SpanTest, BoundHistogramSampleEqualsExportedDuration) {
  Tracer tracer;
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test.span.seconds");
  const TraceContext root = tracer.Root(1, "t");
  double ended = 0.0;
  {
    Span span = StartSpan(root, "bound", &histogram);
    ASSERT_TRUE(span.active());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(span.ElapsedSeconds(), 0.0);
    ended = span.End();
    EXPECT_EQ(span.End(), 0.0);  // Idempotent: no second sample.
  }
  const std::vector<SpanRecord> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(histogram.count(), 1);
  // One pair of clock reads: the histogram sample, the exported duration and
  // End()'s return value are the same double.
  EXPECT_EQ(histogram.sum(), spans[0].duration_seconds);
  EXPECT_EQ(ended, spans[0].duration_seconds);
  EXPECT_GT(ended, 0.0);
}

TEST(SpanTest, StartSpanAtBackdatesTheInterval) {
  Tracer tracer;
  MetricsRegistry registry;
  Histogram& histogram = registry.GetHistogram("test.wait.seconds");
  const TraceContext root = tracer.Root(2, "req:2");
  const auto start = std::chrono::steady_clock::now() - std::chrono::milliseconds(10);
  Span span = StartSpanAt(root, "queue.wait", start, &histogram);
  span.SetFlowIn(33);
  const double seconds = span.End();
  EXPECT_GE(seconds, 0.010);
  const std::vector<SpanRecord> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].duration_seconds, seconds);
  EXPECT_EQ(spans[0].flow_in, 33u);
  EXPECT_EQ(histogram.sum(), seconds);
}

TEST(SpanTest, AddCompletedRecordsInterval) {
  Tracer tracer;
  const TraceContext root = tracer.Root(5, "req:5");
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::milliseconds(10);
  const std::uint64_t id =
      tracer.AddCompleted(root, "queue.wait", start, end, {{"requeues", "0"}},
                          /*flow_out=*/0, /*flow_in=*/21);
  EXPECT_NE(id, 0u);
  const std::vector<SpanRecord> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "queue.wait");
  EXPECT_NEAR(spans[0].duration_seconds, 0.010, 1e-3);
  EXPECT_EQ(spans[0].flow_in, 21u);
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].key, "requeues");
}

TEST(SpanTest, CrossThreadPropagationUnderThreadPool) {
  // The compiler's fan-out pattern: a context captured by value parents every
  // task span correctly no matter which pool thread runs it.
  Tracer tracer;
  const TraceContext root = tracer.Root(11, "compile");
  constexpr std::int64_t kTasks = 32;
  {
    Span parent = StartSpan(root, "intra_op_search");
    const TraceContext ctx = parent.context();
    ThreadPool pool(4);
    pool.ParallelFor(kTasks, [&ctx](std::int64_t i) {
      Span task = StartSpan(ctx.WithTrack("compile.search.op" + std::to_string(i)), "search");
      task.AddAttr("task", std::to_string(i));
    });
  }
  const std::vector<SpanRecord> spans = tracer.FinishedSpans();
  ASSERT_EQ(spans.size(), static_cast<std::size_t>(kTasks + 1));
  const SpanRecord* parent = FindSpan(spans, "intra_op_search");
  ASSERT_NE(parent, nullptr);
  std::set<std::string> tracks;
  for (const SpanRecord& span : spans) {
    if (span.name != "search") {
      continue;
    }
    EXPECT_EQ(span.parent_id, parent->span_id);
    EXPECT_EQ(span.trace_id, 11u);
    tracks.insert(span.track);
  }
  EXPECT_EQ(tracks.size(), static_cast<std::size_t>(kTasks));  // Per-op lanes.
  EXPECT_EQ(tracer.num_open(), 0);
}

TEST(SpanTest, ConcurrentSpansFromManyThreadsAllFinish) {
  Tracer tracer;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      const TraceContext root =
          tracer.Root(static_cast<std::uint64_t>(t), "req:" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i) {
        Span span = StartSpan(root, "work");
        span.AddAttr("i", std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(tracer.num_finished(), kThreads * kPerThread);
  EXPECT_EQ(tracer.num_open(), 0);
  // Span ids are unique.
  std::set<std::uint64_t> ids;
  for (const SpanRecord& span : tracer.FinishedSpans()) {
    EXPECT_TRUE(ids.insert(span.span_id).second);
  }
}

TEST(SpanTest, OpenSpansSnapshotReportsElapsedTime) {
  Tracer tracer;
  const TraceContext root = tracer.Root(2, "req:2");
  Span open = StartSpan(root, "in-flight");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::vector<SpanRecord> snapshot = tracer.OpenSpans();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "in-flight");
  EXPECT_GT(snapshot[0].duration_seconds, 0.0);
  EXPECT_EQ(tracer.num_open(), 1);
  open.End();
  EXPECT_EQ(tracer.num_open(), 0);
}

TEST(SpanTest, CounterSamplesAreRecorded) {
  Tracer tracer;
  tracer.CounterSample("serve.queue.depth", 3.0);
  tracer.CounterSample("serve.queue.depth", 5.0);
  const std::vector<CounterSample> samples = tracer.CounterSamples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].track, "serve.queue.depth");
  EXPECT_DOUBLE_EQ(samples[1].value, 5.0);
  EXPECT_GE(samples[1].time_seconds, samples[0].time_seconds);
}

// -- Perfetto export schema ------------------------------------------------

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(SpanExportTest, AppendTracerEmitsSlicesArgsAndFlows) {
  Tracer tracer;
  const TraceContext root = tracer.Root(9, "req:9");
  {
    Span execute = StartSpan(root, "execute");
    execute.AddAttr("worker", "0");
    execute.SetFlowOut(144);
  }
  {
    Span wait = StartSpan(root, "queue.wait");
    wait.SetFlowIn(144);
  }
  Span open = StartSpan(root, "still-open");
  tracer.CounterSample("serve.inflight", 1.0);

  TraceWriter writer;
  AppendTracer(tracer, writer);
  const std::string json = writer.ToJson();

  // Slices with args on the span's track.
  EXPECT_TRUE(Contains(json, "\"name\": \"execute\""));
  EXPECT_TRUE(Contains(json, "\"ph\": \"X\""));
  EXPECT_TRUE(Contains(json, "\"worker\": \"0\""));
  // Flow arrow: one "s" and one "f" with the same id, the "f" end binding
  // to its enclosing slice ("bp": "e").
  EXPECT_TRUE(Contains(json, "\"ph\": \"s\""));
  EXPECT_TRUE(Contains(json, "\"ph\": \"f\""));
  EXPECT_TRUE(Contains(json, "\"bp\": \"e\""));
  EXPECT_TRUE(Contains(json, "\"id\": 144"));
  // Open spans export flagged as open.
  EXPECT_TRUE(Contains(json, "\"name\": \"still-open\""));
  EXPECT_TRUE(Contains(json, "\"open\": \"true\""));
  // Counter samples ride along as "C" events.
  EXPECT_TRUE(Contains(json, "\"ph\": \"C\""));
  EXPECT_TRUE(Contains(json, "serve.inflight"));
  // Lane metadata names the track.
  EXPECT_TRUE(Contains(json, "thread_name"));
  EXPECT_TRUE(Contains(json, "req:9"));
}

TEST(SpanExportTest, ExportedJsonParsesAsTraceEventArray) {
  // Minimal structural check without a JSON library: balanced brackets and
  // the envelope Perfetto expects (a top-level array of objects).
  Tracer tracer;
  const TraceContext root = tracer.Root(1, "lane");
  { Span s = StartSpan(root, "a"); }
  TraceWriter writer;
  AppendTracer(tracer, writer);
  const std::string json = writer.ToJson();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');  // Trailing newline after the array.
  std::int64_t depth = 0;
  std::int64_t braces = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '[') {
      ++depth;
    } else if (c == ']') {
      --depth;
    } else if (c == '{') {
      ++braces;
    } else if (c == '}') {
      --braces;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(braces, 0);
}

}  // namespace
}  // namespace obs
}  // namespace t10
