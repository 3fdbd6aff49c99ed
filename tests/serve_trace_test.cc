// End-to-end observability of the serving runtime: request-scoped span
// trees (admission -> queue wait -> execute attempts -> audit -> response),
// flow links across failover requeues, the flight-recorder dump a chaos
// core-kill produces (with the full failover event sequence in order), and
// the per-plan-signature timing sidecar.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/ir/builder.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/plan_timings.h"
#include "src/obs/span.h"
#include "src/serve/server.h"
#include "src/sim/trace.h"

namespace t10 {
namespace serve {
namespace {

Graph SmallModel() {
  Graph g("serve-small");
  g.Add(MatMulOp("fc1", 8, 16, 8, DataType::kF32, "x", "w1", "h1"));
  g.Add(ElementwiseOp("relu", {8, 8}, DataType::kF32, "h1", "h2"));
  g.Add(MatMulOp("fc2", 8, 8, 8, DataType::kF32, "h2", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  return g;
}

// Cores small enough that RotatingModel's fc1 (slot kRotatingSlot) rotates,
// so its execution moves data over links.
ChipSpec CrampedChip() {
  ChipSpec chip = ChipSpec::ScaledIpu(8);
  chip.core_memory_bytes = 512;
  chip.shift_buffer_bytes = 64;
  return chip;
}

Graph RotatingModel() {
  Graph g("serve-rotating");
  g.Add(MatMulOp("big", 1, 16, 16, DataType::kF32, "x0", "w0", "y0"));
  g.Add(MatMulOp("fc1", 8, 16, 8, DataType::kF32, "x", "w1", "h1"));
  g.MarkWeight("w0");
  g.MarkWeight("w1");
  return g;
}
constexpr int kRotatingSlot = 1;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Index of the first journal event with this name at or after `from`, or -1.
int IndexOf(const std::vector<obs::Event>& events, const std::string& name, int from = 0) {
  for (int i = from; i < static_cast<int>(events.size()); ++i) {
    if (events[static_cast<std::size_t>(i)].event == name) {
      return i;
    }
  }
  return -1;
}

// Finished spans named `name`.
std::int64_t SpanCount(const obs::Tracer& tracer, const std::string& name) {
  std::int64_t count = 0;
  for (const obs::SpanRecord& span : tracer.FinishedSpans()) {
    count += span.name == name ? 1 : 0;
  }
  return count;
}

// Samples so far in the process-wide histogram `name`.
std::int64_t SampleCount(const std::string& name) {
  return obs::MetricsRegistry::Global().GetHistogram(name).count();
}

TEST(ServeTraceTest, EveryRequestGetsAFullSpanTree) {
  const Graph graph = SmallModel();
  const std::int64_t waits_before = SampleCount("serve.queue_wait.seconds");
  const std::int64_t executes_before = SampleCount("serve.execute.seconds");
  obs::Tracer tracer;
  obs::EventJournal journal;
  ServerOptions options;
  options.num_workers = 2;
  options.health_poll_seconds = 0.002;
  options.tracer = &tracer;
  options.journal = &journal;
  Server server(ChipSpec::ScaledIpu(8), graph, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kRequests = 6;
  std::set<std::int64_t> ids;
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.op_slot = i % server.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = server.Submit(request);
    ASSERT_TRUE(id.ok());
    ids.insert(*id);
  }
  server.WaitIdle();
  ASSERT_EQ(server.TakeResponses().size(), static_cast<std::size_t>(kRequests));
  EXPECT_TRUE(server.Shutdown().ok());

  // Per trace id: the full request lifecycle, each stage at least once
  // ("attempt"/"exec.steps" can legitimately repeat on retries).
  std::map<std::uint64_t, std::set<std::string>> by_trace;
  for (const obs::SpanRecord& span : tracer.FinishedSpans()) {
    by_trace[span.trace_id].insert(span.name);
  }
  for (const std::int64_t id : ids) {
    const auto it = by_trace.find(static_cast<std::uint64_t>(id));
    ASSERT_NE(it, by_trace.end()) << "no spans for request " << id;
    for (const char* stage :
         {"admit", "queue.wait", "execute", "attempt", "exec.steps", "audit", "respond"}) {
      EXPECT_EQ(it->second.count(stage), 1u) << "request " << id << " missing " << stage;
    }
  }
  EXPECT_EQ(tracer.num_open(), 0);
  // The spans are the timers: one histogram sample per span.
  EXPECT_EQ(SpanCount(tracer, "queue.wait"),
            SampleCount("serve.queue_wait.seconds") - waits_before);
  EXPECT_EQ(SpanCount(tracer, "execute"), SampleCount("serve.execute.seconds") - executes_before);

  // Executor step groups live on a worker lane, children of the attempt.
  bool exec_lane_seen = false;
  for (const obs::SpanRecord& span : tracer.FinishedSpans()) {
    if (span.name == "exec.steps") {
      EXPECT_EQ(span.track.rfind("exec.w", 0), 0u) << span.track;
      EXPECT_NE(span.parent_id, 0u);
      exec_lane_seen = true;
    }
  }
  EXPECT_TRUE(exec_lane_seen);

  // The journal saw the lifecycle events.
  const std::vector<obs::Event> events = journal.Snapshot();
  EXPECT_GE(IndexOf(events, "server.start"), 0);
  EXPECT_GE(IndexOf(events, "request.admitted"), 0);
  EXPECT_GE(IndexOf(events, "request.response"), 0);
}

TEST(ServeTraceTest, ChaosKillProducesFlightRecorderAndFlowLinkedRequeue) {
  const Graph graph = SmallModel();
  const ChipSpec chip = ChipSpec::ScaledIpu(8);
  const std::string dump_path = ::testing::TempDir() + "/serve_trace_fr." +
                                std::to_string(::getpid()) + ".json";

  // Whether a request is caught mid-execution by the failover (and therefore
  // re-queued) is a genuine scheduling race: workers popped during the drain
  // deliberately wait out the replan and run on the NEW epoch. Each attempt
  // below asserts the invariants that must hold on every failover (event
  // order, flight-recorder dump, exactly one epoch bump); the flow-link
  // contract is asserted on the first attempt whose kill lands mid-backlog.
  bool requeue_observed = false;
  constexpr int kAttempts = 10;
  for (int attempt = 0; attempt < kAttempts && !requeue_observed; ++attempt) {
    obs::Tracer tracer;
    obs::EventJournal journal;
    obs::PlanTimings plan_timings;
    std::remove(dump_path.c_str());
    const std::int64_t waits_before = SampleCount("serve.queue_wait.seconds");
    const std::int64_t executes_before = SampleCount("serve.execute.seconds");

    ServerOptions options;
    options.num_workers = 2;
    // Huge poll interval: only the KillCore suspicion (and worker trips over
    // the dead core) can drive the failover, never a background probe.
    options.health_poll_seconds = 60.0;
    options.retry_backoff_base_seconds = 0.0;
    options.tracer = &tracer;
    options.journal = &journal;
    options.plan_timings = &plan_timings;
    options.flight_recorder_path = dump_path;
    Server server(chip, graph, options);
    ASSERT_TRUE(server.Start().ok());

    // Warm epoch 0 with a couple of requests.
    for (int i = 0; i < 2; ++i) {
      Request request;
      request.op_slot = i % server.num_op_slots();
      request.input_seed = static_cast<std::uint64_t>(i);
      ASSERT_TRUE(server.Submit(request).ok());
    }
    server.WaitIdle();

    // Build a backlog, then kill into it: with 16 queued requests and 2
    // workers the kill usually lands while a request is executing on the
    // dead epoch-0 plan, which fails kUnavailable and re-queues.
    std::int64_t accepted = 0;
    for (int i = 0; i < 16; ++i) {
      Request request;
      request.op_slot = i % server.num_op_slots();
      request.input_seed = 100 + static_cast<std::uint64_t>(i);
      if (server.Submit(request).ok()) {
        ++accepted;
      }
    }
    ASSERT_GE(accepted, 8);
    server.KillCore(chip.num_cores - 1);
    server.WaitIdle();
    // The backlog can drain before the failover finishes (Submit refuses
    // while the server replans), so wait for the swap to complete.
    const auto swap_deadline = Clock::now() + std::chrono::seconds(20);
    while ((server.stats().failovers < 1 || server.state() != ServerState::kServing) &&
           Clock::now() < swap_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // A couple of post-failover requests guarantee epoch-1 plan timings even
    // when the whole backlog raced ahead of the swap.
    for (int i = 0; i < 2; ++i) {
      Request request;
      request.input_seed = 200 + static_cast<std::uint64_t>(i);
      ASSERT_TRUE(server.Submit(request).ok());
    }
    server.WaitIdle();
    const std::vector<Response> responses = server.TakeResponses();
    const ServerStats stats = server.stats();
    EXPECT_TRUE(server.Shutdown().ok());

    // Invariants of every attempt: exactly one failover, clean audits.
    ASSERT_EQ(stats.failovers, 1);
    for (const Response& response : responses) {
      if (response.status.ok()) {
        EXPECT_TRUE(response.bit_identical);
      }
    }

    // Journal: the failover sequence, in causal order.
    const std::vector<obs::Event> events = journal.Snapshot();
    const int probe = IndexOf(events, "health.probe");
    ASSERT_GE(probe, 0);
    const int detected = IndexOf(events, "failover.detected", probe);
    ASSERT_GE(detected, 0);
    const int drain = IndexOf(events, "failover.drain", detected);
    ASSERT_GE(drain, 0);
    const int replan = IndexOf(events, "failover.replan", drain);
    ASSERT_GE(replan, 0);
    const int verify_gate = IndexOf(events, "failover.verify_gate", replan);
    ASSERT_GE(verify_gate, 0);
    const int hot_swap = IndexOf(events, "failover.hot_swap", verify_gate);
    ASSERT_GE(hot_swap, 0);
    EXPECT_EQ(events[static_cast<std::size_t>(hot_swap)].plan_epoch, 1);

    // Flight recorder: the dump exists and retains the same failover history.
    const std::string dump = ReadFile(dump_path);
    ASSERT_FALSE(dump.empty()) << "no flight-recorder dump at " << dump_path;
    for (const char* event : {"health.probe", "failover.detected", "failover.drain",
                              "failover.replan", "failover.verify_gate", "failover.hot_swap"}) {
      EXPECT_NE(dump.find(event), std::string::npos) << "dump missing " << event;
    }
    std::remove(dump_path.c_str());

    // Plan timings: epoch 1 always observed execution post-swap; epoch 0 via
    // the warm-up requests.
    EXPECT_GT(plan_timings.num_cells(), 0);
    EXPECT_GT(plan_timings.total_count(), 0);
    std::set<int> epochs;
    {
      std::istringstream lines(plan_timings.ToJson());
      std::string line;
      while (std::getline(lines, line)) {
        const auto pos = line.find("\"plan_epoch\": ");
        if (pos != std::string::npos) {
          epochs.insert(std::atoi(line.c_str() + pos + 14));
        }
      }
    }
    EXPECT_EQ(epochs.count(0), 1u);
    EXPECT_EQ(epochs.count(1), 1u);

    if (stats.requeued < 1) {
      continue;  // Kill won the race against the backlog: try again.
    }
    requeue_observed = true;
    EXPECT_GE(IndexOf(events, "request.requeued"), 0);
    // A requeued request waits and executes twice; each span still records
    // exactly one sample.
    EXPECT_EQ(SpanCount(tracer, "queue.wait"),
              SampleCount("serve.queue_wait.seconds") - waits_before);
    EXPECT_EQ(SpanCount(tracer, "execute"),
              SampleCount("serve.execute.seconds") - executes_before);

    // Spans: the requeued request's interrupted execute emits a flow id that
    // a later queue.wait receives — the arrow linking the two epochs.
    std::map<std::uint64_t, int> flow_out_ids;
    std::map<std::uint64_t, int> flow_in_ids;
    for (const obs::SpanRecord& span : tracer.FinishedSpans()) {
      if (span.flow_out != 0) {
        ++flow_out_ids[span.flow_out];
        EXPECT_EQ(span.name, "execute");
      }
      if (span.flow_in != 0) {
        ++flow_in_ids[span.flow_in];
        EXPECT_EQ(span.name, "queue.wait");
      }
    }
    ASSERT_FALSE(flow_out_ids.empty());
    bool linked = false;
    for (const auto& [id, count] : flow_out_ids) {
      if (flow_in_ids.count(id) > 0) {
        linked = true;
      }
    }
    EXPECT_TRUE(linked) << "no flow id appears on both an execute and a queue.wait span";

    // The Perfetto export carries the arrows as "s"/"f" events.
    TraceWriter writer;
    AppendTracer(tracer, writer);
    const std::string json = writer.ToJson();
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  }
  EXPECT_TRUE(requeue_observed)
      << "no attempt out of " << kAttempts << " re-queued a request across the failover";
}

TEST(ServeTraceTest, RequeueRefusedByClosedSchedulerEmitsNoFlow) {
  // Every transfer is damaged, so the request's first execution loses data
  // and sleeps out a long retry backoff. Meanwhile Shutdown closes the
  // scheduler and a core dies; the retry fails kUnavailable, and its requeue
  // is refused. The request is answered at once, and no flow arrow may
  // start at its execute span, because no queue.wait will ever receive it.
  const Graph graph = RotatingModel();
  obs::Tracer tracer;
  obs::EventJournal journal;
  ServerOptions options;
  options.num_workers = 1;
  options.health_poll_seconds = 60.0;
  options.retry_backoff_base_seconds = 0.4;
  options.faults.burst_corrupt = 1000000;
  options.tracer = &tracer;
  options.journal = &journal;
  Server server(CrampedChip(), graph, options);
  ASSERT_TRUE(server.Start().ok());
  Request request;
  request.op_slot = kRotatingSlot;
  request.max_retries = 1;
  ASSERT_TRUE(server.Submit(request).ok());
  while (IndexOf(journal.Snapshot(), "exec.retry") < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Shutdown's status says whether the replan around the dead core fit the
  // cramped chip; only the refused requeue matters here.
  std::thread stopper([&server] { (void)server.Shutdown(); });
  while (server.state() == ServerState::kServing) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Shutdown closes the scheduler right after it leaves kServing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.KillCore(0);
  stopper.join();

  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kUnavailable)
      << responses[0].status.ToString();
  EXPECT_EQ(server.stats().requeued, 0);
  std::multiset<std::uint64_t> flow_starts;
  std::multiset<std::uint64_t> flow_ends;
  for (const obs::SpanRecord& span : tracer.FinishedSpans()) {
    if (span.flow_out != 0) {
      flow_starts.insert(span.flow_out);
    }
    if (span.flow_in != 0) {
      flow_ends.insert(span.flow_in);
    }
  }
  EXPECT_EQ(flow_starts, flow_ends);
}

TEST(ServeTraceTest, FailedServerDrainReceivesRequeueFlow) {
  // Every transfer is damaged, so the request's first execution loses data
  // and sleeps out a retry backoff, during which core 0 dies. The retry fails
  // kUnavailable and the request is requeued, its execute span starting a
  // flow arrow. The replan around the dead core no longer fits the cramped
  // chip, so the server parks in kFailed, and the worker answers the
  // requeued request from the failed-server drain, whose queue.wait span
  // must still receive the arrow.
  const Graph graph = RotatingModel();
  obs::Tracer tracer;
  obs::EventJournal journal;
  ServerOptions options;
  options.num_workers = 1;
  options.health_poll_seconds = 60.0;
  options.retry_backoff_base_seconds = 0.2;
  options.faults.burst_corrupt = 1000000;
  options.tracer = &tracer;
  options.journal = &journal;
  Server server(CrampedChip(), graph, options);
  ASSERT_TRUE(server.Start().ok());
  Request request;
  request.op_slot = kRotatingSlot;
  request.max_retries = 1;
  ASSERT_TRUE(server.Submit(request).ok());
  while (IndexOf(journal.Snapshot(), "exec.retry") < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.KillCore(0);
  server.WaitIdle();
  EXPECT_EQ(server.state(), ServerState::kFailed);
  EXPECT_FALSE(server.Shutdown().ok());

  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kUnavailable)
      << responses[0].status.ToString();
  EXPECT_EQ(server.stats().requeued, 1);
  std::multiset<std::uint64_t> flow_starts;
  std::multiset<std::uint64_t> flow_ends;
  for (const obs::SpanRecord& span : tracer.FinishedSpans()) {
    if (span.flow_out != 0) {
      flow_starts.insert(span.flow_out);
    }
    if (span.flow_in != 0) {
      flow_ends.insert(span.flow_in);
    }
  }
  EXPECT_EQ(flow_starts.size(), 1u);
  EXPECT_EQ(flow_starts, flow_ends);
}

TEST(ServeTraceTest, UnsurvivableFailureDumpsParkEvent) {
  const Graph graph = SmallModel();
  obs::EventJournal journal;
  const std::string dump_path = ::testing::TempDir() + "/serve_trace_park.json";
  std::remove(dump_path.c_str());

  ServerOptions options;
  options.num_workers = 2;
  options.health_poll_seconds = 0.002;
  options.journal = &journal;
  options.flight_recorder_path = dump_path;
  const ChipSpec chip = ChipSpec::ScaledIpu(4);
  Server server(chip, graph, options);
  ASSERT_TRUE(server.Start().ok());
  for (int core = 0; core < chip.num_cores; ++core) {
    server.KillCore(core);
  }
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(20.0);
  while (server.state() != ServerState::kFailed && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.state(), ServerState::kFailed);
  EXPECT_FALSE(server.Shutdown().ok());

  EXPECT_GE(IndexOf(journal.Snapshot(), "failover.park_failed"), 0);
  const std::string dump = ReadFile(dump_path);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("failover.park_failed"), std::string::npos);
  EXPECT_NE(dump.find("replan failed"), std::string::npos);
  std::remove(dump_path.c_str());
}

TEST(ServeTraceTest, TracingOffCostsNothingVisible) {
  // With no tracer/journal configured the server serves normally and no
  // observability artifact appears.
  const Graph graph = SmallModel();
  ServerOptions options;
  options.num_workers = 2;
  options.health_poll_seconds = 0.002;
  Server server(ChipSpec::ScaledIpu(8), graph, options);
  ASSERT_TRUE(server.Start().ok());
  Request request;
  request.input_seed = 5;
  ASSERT_TRUE(server.Submit(request).ok());
  server.WaitIdle();
  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_TRUE(server.Shutdown().ok());
}

}  // namespace
}  // namespace serve
}  // namespace t10
