#include "src/sim/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "src/core/pass/plan_cache.h"
#include "src/core/trace_export.h"
#include "src/ir/builder.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

TEST(TraceWriterTest, EmitsValidEventObjects) {
  TraceWriter trace;
  trace.Add("op1 compute", "compute", 0.0, 10e-6);
  trace.Add("op1 exchange", "exchange", 0.0, 4e-6);
  trace.Add("op2 compute", "compute", 10e-6, 7e-6);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\": \"op1 compute\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 10"), std::string::npos);
  // Lane metadata present with stable tids.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"compute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"exchange\""), std::string::npos);
}

TEST(TraceWriterTest, EscapesQuotes) {
  TraceWriter trace;
  trace.Add("weird\"name", "lane", 0.0, 1e-6);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
}

TEST(TraceWriterTest, EmptyTraceIsValidJson) {
  TraceWriter trace;
  EXPECT_EQ(trace.ToJson(), "[\n]\n");
}

TEST(TraceWriterTest, EmitsCounterEvents) {
  TraceWriter trace;
  trace.AddCounter("memory bytes/core", 0.0, 1024.0);
  trace.AddCounter("memory bytes/core", 5e-6, 2048.0);
  ASSERT_EQ(trace.counters().size(), 2u);
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"memory bytes/core\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 1024}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"value\": 2048}"), std::string::npos);
  // Timestamps are microseconds.
  EXPECT_NE(json.find("\"ts\": 5"), std::string::npos);
}

TEST(TraceWriterTest, MixedSpansAndCountersStayValidJson) {
  TraceWriter trace;
  trace.Add("op compute", "compute", 0.0, 1e-6);
  trace.AddCounter("link utilisation", 0.0, 0.8);
  std::string json = trace.ToJson();
  // Every event object is comma-separated: no ",]" or "}{" artifacts.
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find("}{"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(TraceWriterTest, ManyLanesKeepFirstSeenTidsAndJson) {
  // A serving trace's shape: a lane per request and per routed request, a
  // shared lane, and spans that return to lanes seen long before.
  constexpr int kRequests = 2500;
  TraceWriter trace;
  for (int i = 0; i < kRequests; ++i) {
    const double t = i * 1e-6;
    trace.Add("admit", NumberedName("req:", i), t, 0.5e-6);
    trace.Add("route", NumberedName("rtr:", i), t, 0.25e-6);
    trace.Add("execute", "stage0", t, 0.75e-6);
    TraceSpan audit;
    audit.name = "audit";
    audit.lane = NumberedName("req:", i / 2);
    audit.start_seconds = t + 1e-6;
    audit.duration_seconds = 0.5e-6;
    audit.args = {{"request", std::to_string(i)}};
    audit.flow_in = i % 7 == 0 ? static_cast<std::uint64_t>(i + 1) : 0;
    audit.flow_out = i % 11 == 0 ? static_cast<std::uint64_t>(i + 1) : 0;
    trace.AddSpan(audit);
    trace.AddCounter("queue depth", t, i % 5);
  }
  const std::string json = trace.ToJson();
  // Tids follow first-seen order: req:0 0, rtr:0 1, stage0 2, req:1 3, ...
  EXPECT_NE(json.find("\"tid\": 2, \"args\": {\"name\": \"stage0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3, \"args\": {\"name\": \"req:1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 5000, \"args\": {\"name\": \"rtr:2499\"}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"tid\": 5001"), std::string::npos);
  // The whole document, byte for byte.
  EXPECT_EQ(Fnv1a64(json), 0xfa393a2a267c69b5ull)
      << json.size() << " bytes, 0x" << std::hex << Fnv1a64(json);
}

TEST(TraceExportTest, CompiledModelProducesOrderedSpans) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = 64;
  chip.cores_per_chip = 64;
  Compiler compiler(chip);
  Graph g("mlp");
  g.Add(MatMulOp("fc1", 32, 256, 512, DataType::kF16, "x", "w1", "h1"));
  g.Add(MatMulOp("fc2", 32, 512, 256, DataType::kF16, "h1", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  CompiledModel model = compiler.Compile(g);
  ASSERT_TRUE(model.fits);
  TraceWriter trace = TraceCompiledModel(model, g);
  ASSERT_GE(trace.spans().size(), 2u);
  // Spans are in non-decreasing start order, and the compute spans of the
  // two ops do not overlap.
  double fc1_end = 0.0;
  double fc2_start = -1.0;
  double prev_start = 0.0;
  for (const TraceSpan& span : trace.spans()) {
    EXPECT_GE(span.start_seconds, prev_start);
    prev_start = span.start_seconds;
    if (span.name.find("fc1 compute") != std::string::npos) {
      fc1_end = span.start_seconds + span.duration_seconds;
    }
    if (span.name.find("fc2 compute") != std::string::npos) {
      fc2_start = span.start_seconds;
    }
  }
  ASSERT_GE(fc2_start, 0.0);
  EXPECT_GE(fc2_start, fc1_end - 1e-12);
}

TEST(TraceExportTest, CompiledModelEmitsCounterTracks) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = 64;
  chip.cores_per_chip = 64;
  Compiler compiler(chip);
  Graph g("mlp");
  g.Add(MatMulOp("fc1", 32, 256, 512, DataType::kF16, "x", "w1", "h1"));
  g.Add(MatMulOp("fc2", 32, 512, 256, DataType::kF16, "h1", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  CompiledModel model = compiler.Compile(g);
  ASSERT_TRUE(model.fits);
  TraceWriter trace = TraceCompiledModel(model, g, &chip);
  ASSERT_FALSE(trace.counters().empty());
  bool saw_memory = false;
  bool saw_traffic = false;
  bool saw_utilisation = false;
  for (const TraceCounterSample& sample : trace.counters()) {
    EXPECT_GE(sample.time_seconds, 0.0);
    if (sample.track == "memory bytes/core") {
      saw_memory = true;
      // Occupancy never exceeds the scratchpad.
      EXPECT_LE(sample.value, static_cast<double>(chip.core_memory_bytes));
    }
    if (sample.track == "link bytes/core (cumulative)") {
      saw_traffic = true;
      EXPECT_GE(sample.value, 0.0);
    }
    if (sample.track == "link utilisation") {
      saw_utilisation = true;
      EXPECT_GE(sample.value, 0.0);
      EXPECT_LE(sample.value, 1.0 + 1e-9);
    }
  }
  EXPECT_TRUE(saw_memory);
  EXPECT_TRUE(saw_traffic);
  EXPECT_TRUE(saw_utilisation);
  // Cumulative traffic is non-decreasing over time for the traffic track.
  double last_ts = -1.0;
  double last_value = -1.0;
  for (const TraceCounterSample& sample : trace.counters()) {
    if (sample.track != "link bytes/core (cumulative)") {
      continue;
    }
    EXPECT_GE(sample.time_seconds, last_ts);
    EXPECT_GE(sample.value, last_value);
    last_ts = sample.time_seconds;
    last_value = sample.value;
  }
}

TEST(TraceExportTest, WritesFile) {
  TraceWriter trace;
  trace.Add("x", "lane", 0.0, 1e-6);
  const std::string path = ::testing::TempDir() + "/t10_trace_test.json";
  EXPECT_TRUE(trace.WriteFile(path).ok());
  std::ifstream file(path);
  EXPECT_TRUE(file.good());
}

TEST(TraceExportTest, UnopenablePathIsInvalidArgument) {
  TraceWriter trace;
  trace.Add("x", "lane", 0.0, 1e-6);
  const Status written = trace.WriteFile("/dev/null/not-a-dir/trace.json");
  EXPECT_EQ(written.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace t10
