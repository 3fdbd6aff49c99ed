// Failure semantics of the serving runtime (src/serve): every accepted
// request gets exactly one response; deadline expiry surfaces as
// kDeadlineExceeded without wedging the scheduler; an exhausted retry budget
// surfaces the underlying fault status; graceful shutdown drains the queue;
// a chaos-killed core triggers exactly one online failover whose responses
// are bit-identical to the fault-free reference on the surviving-core plan;
// and an unsurvivable failure parks the server in kFailed with queued
// requests answered, not lost.

#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "src/ir/builder.h"
#include "src/obs/metrics.h"
#include "src/serve/executor_pool.h"
#include "src/serve/health_monitor.h"

namespace t10 {
namespace serve {
namespace {

ChipSpec TinyChip(int cores) { return ChipSpec::ScaledIpu(cores); }

Graph SmallModel() {
  Graph g("serve-small");
  g.Add(MatMulOp("fc1", 8, 16, 8, DataType::kF32, "x", "w1", "h1"));
  g.Add(ElementwiseOp("relu", {8, 8}, DataType::kF32, "h1", "h2"));
  g.Add(MatMulOp("fc2", 8, 8, 8, DataType::kF32, "h2", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  return g;
}

// A chip and model whose *compiled* plans move bytes: `big` crowds the
// 512 B scratchpads, so fc1's active plan rotates (2 steps) while every op's
// fault-tolerant footprint still fits. SmallModel's plans on TinyChip are all
// 1-step spatial, where no transfer happens and no fault can bite.
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

// The slot serving fc1 in RotatingModel on CrampedChip, asserted to rotate.
constexpr int kRotatingSlot = 1;

// Steps of the plan `options`' server will run on `slot`: the same
// deterministic compile Server::Start performs.
std::int64_t ServedSteps(const ChipSpec& chip, const Graph& graph, const ServerOptions& options,
                         int slot) {
  StatusOr<std::shared_ptr<PlanSet>> built =
      PlanSet::Build(chip, graph, TopologyHealth{}, options.compile, /*epoch=*/0,
                     /*verify=*/false, /*journal=*/nullptr, options.fault_tolerance);
  if (!built.ok()) {
    ADD_FAILURE() << built.status().ToString();
    return 0;
  }
  EXPECT_EQ((*built)->slot(slot).op_name, "fc1");
  return (*built)->slot(slot).plan->total_steps();
}

ServerOptions FastOptions() {
  ServerOptions options;
  options.num_workers = 2;
  options.health_poll_seconds = 0.002;
  options.retry_backoff_base_seconds = 0.0;
  return options;
}

// Spin-waits (with timeout) for a server condition driven by background
// threads, e.g. the health monitor completing a failover.
template <typename Predicate>
bool WaitFor(Predicate predicate, double timeout_seconds = 20.0) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(timeout_seconds);
  while (!predicate()) {
    if (Clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServeServerTest, ServesBitIdenticalResponses) {
  const Graph graph = SmallModel();
  Server server(TinyChip(8), graph, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(server.num_op_slots(), 3);
  EXPECT_EQ(server.op_slot_name(0), "fc1");

  std::set<std::int64_t> ids;
  for (int i = 0; i < 9; ++i) {
    Request request;
    request.op_slot = i % server.num_op_slots();
    request.input_seed = 100 + static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = server.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(ids.insert(*id).second) << "duplicate id";
  }
  server.WaitIdle();
  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), 9u);
  for (const Response& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.bit_identical);
    EXPECT_EQ(response.plan_epoch, 0);
    EXPECT_GT(response.output.data.size(), 0u);
    EXPECT_EQ(ids.count(response.id), 1u);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 9);
  EXPECT_EQ(stats.responses, 9);
  EXPECT_EQ(stats.ok, 9);
  EXPECT_EQ(stats.failovers, 0);
  EXPECT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(server.state(), ServerState::kStopped);
}

// A long stream of fresh-seed requests (as whole-model serving produces)
// must not grow the reference cache past its cap, and every audit — the
// executed output against the possibly recomputed reference — must stay
// bit-identical, including for seeds whose reference was evicted.
TEST(ServePlanSetTest, ReferenceCacheStaysBoundedOverALongStream) {
  const Graph graph = SmallModel();
  const ChipSpec chip = TinyChip(8);
  StatusOr<std::shared_ptr<PlanSet>> built =
      PlanSet::Build(chip, graph, TopologyHealth{}, CompileOptions{}, /*epoch=*/0,
                     /*verify=*/false);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  PlanSet& plans = **built;
  ExecutorPool pool(chip, fault::FaultSpec{}, FaultToleranceOptions{},
                    /*retry_backoff_base_seconds=*/0.0, /*num_workers=*/1);
  constexpr std::size_t kCap = PlanSet::kReferenceCacheCapacity;
  StatusOr<std::shared_ptr<const PlanSet::Reference>> first = plans.ReferenceFor(0, 1000);
  ASSERT_TRUE(first.ok());
  const std::vector<float> first_data = (*first)->data;
  const int requests = static_cast<int>(2 * kCap) + 7;
  for (int i = 0; i < requests; ++i) {
    const int slot = i % plans.num_op_slots();
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(i);
    const ExecuteOutcome outcome = pool.Execute(0, plans, slot, seed, /*max_retries=*/0,
                                                /*has_deadline=*/false, Clock::time_point{});
    ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    StatusOr<std::shared_ptr<const PlanSet::Reference>> reference =
        plans.ReferenceFor(slot, seed);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ((*reference)->shape, outcome.output.shape) << "request " << i;
    EXPECT_EQ((*reference)->data, outcome.output.data) << "request " << i;
    ASSERT_LE(plans.reference_cache_size(), kCap) << "request " << i;
  }
  EXPECT_EQ(plans.reference_cache_size(), kCap);
  // The first reference was evicted long ago: the caller's copy is still
  // intact, and recomputing it reproduces the same bytes.
  EXPECT_EQ((*first)->data, first_data);
  StatusOr<std::shared_ptr<const PlanSet::Reference>> again = plans.ReferenceFor(0, 1000);
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again->get(), first->get());
  EXPECT_EQ((*again)->checksum, (*first)->checksum);
  EXPECT_EQ((*again)->data, first_data);
}

// What is served is what was compiled: every slot runs its compiled op's
// active plan (the one the verifier gate checked and pacing bills), and
// building the epoch searches no operator beyond what Compile itself does.
TEST(ServePlanSetTest, SlotsRunTheCompiledActivePlans) {
  const Graph graph = SmallModel();
  const ChipSpec chip = TinyChip(8);
  obs::Counter& searches = obs::MetricsRegistry::Global().GetCounter("compiler.search.searches");

  std::int64_t before = searches.value();
  Compiler compiler(chip, CompileOptions{});
  ASSERT_TRUE(compiler.Compile(graph).fits);
  const std::int64_t compile_searches = searches.value() - before;
  ASSERT_GT(compile_searches, 0);

  before = searches.value();
  StatusOr<std::shared_ptr<PlanSet>> built =
      PlanSet::Build(chip, graph, TopologyHealth{}, CompileOptions{}, /*epoch=*/0,
                     /*verify=*/true);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(searches.value() - before, compile_searches);

  const PlanSet& plans = **built;
  ASSERT_EQ(plans.num_op_slots(), 3);
  for (int i = 0; i < plans.num_op_slots(); ++i) {
    const OpSlot& slot = plans.slot(i);
    const CompiledOp& compiled = plans.model().ops[static_cast<std::size_t>(slot.op_index)];
    EXPECT_EQ(slot.plan, &compiled.active_plan) << slot.op_name;
    EXPECT_EQ(slot.simulated_seconds, compiled.measured.total_seconds()) << slot.op_name;
  }
}

// The compiler budgets a core for the plan alone; fault tolerance adds one
// spare window per operand. A model that compiles but whose fault-tolerant
// programs overflow a core must be refused at Start(), naming the op, not
// fail every request with the executor's allocation error.
TEST(ServeServerTest, StartRejectsSlotsThatOverflowWithFaultToleranceSpares) {
  const Graph graph = SmallModel();
  ChipSpec chip = TinyChip(8);
  chip.core_memory_bytes = 384;
  chip.shift_buffer_bytes = 64;
  ASSERT_TRUE(Compiler(chip, CompileOptions{}).Compile(graph).fits);
  ASSERT_TRUE(PlanSet::Build(chip, graph, TopologyHealth{}, CompileOptions{}, /*epoch=*/0,
                             /*verify=*/true)
                  .ok());

  Server server(chip, graph, FastOptions());
  const Status started = server.Start();
  EXPECT_EQ(started.code(), StatusCode::kResourceExhausted) << started.ToString();
  EXPECT_NE(started.message().find("'fc1'"), std::string::npos) << started.ToString();
  EXPECT_EQ(server.state(), ServerState::kIdle);
}

TEST(ServeServerTest, LifecycleErrors) {
  const Graph graph = SmallModel();
  Server server(TinyChip(8), graph, FastOptions());

  StatusOr<std::int64_t> early = server.Submit(Request{});
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);

  Request bad_slot;
  bad_slot.op_slot = 99;
  StatusOr<std::int64_t> invalid = server.Submit(bad_slot);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(server.Shutdown().ok());
  StatusOr<std::int64_t> late = server.Submit(Request{});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.Shutdown().ok());  // Idempotent.
}

TEST(ServeServerTest, TransientCorruptionIsAbsorbed) {
  const Graph graph = RotatingModel();
  const ChipSpec chip = CrampedChip();
  ServerOptions options = FastOptions();
  // The first transfers each worker makes arrive corrupted; the checksummed
  // retry layer must absorb them.
  options.faults.burst_corrupt = 2;
  ASSERT_GT(ServedSteps(chip, graph, options, kRotatingSlot), 1);
  obs::Counter& fault_retries =
      obs::MetricsRegistry::Global().GetCounter("sim.fault.retries");
  const std::int64_t retries_before = fault_retries.value();
  Server server(chip, graph, options);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 6; ++i) {
    Request request;
    request.op_slot = kRotatingSlot;
    request.input_seed = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(server.Submit(request).ok());
  }
  server.WaitIdle();
  for (const Response& response : server.TakeResponses()) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.bit_identical);
  }
  EXPECT_TRUE(server.Shutdown().ok());
  EXPECT_GT(fault_retries.value(), retries_before) << "no corruption reached a transfer";
}

TEST(ServeServerTest, DeadlineExpiryDoesNotWedgeTheScheduler) {
  const Graph graph = SmallModel();
  ServerOptions options = FastOptions();
  options.num_workers = 1;  // Force the deadline request to wait in queue.
  Server server(TinyChip(8), graph, options);
  ASSERT_TRUE(server.Start().ok());

  Request blocker;  // Occupies the single worker first.
  StatusOr<std::int64_t> blocker_id = server.Submit(blocker);
  ASSERT_TRUE(blocker_id.ok());

  Request doomed;
  doomed.deadline_seconds = 1e-9;  // Expires while queued behind the blocker.
  StatusOr<std::int64_t> doomed_id = server.Submit(doomed);
  ASSERT_TRUE(doomed_id.ok());

  Request after;  // Must still be served: the scheduler is not wedged.
  after.input_seed = 5;
  StatusOr<std::int64_t> after_id = server.Submit(after);
  ASSERT_TRUE(after_id.ok());

  server.WaitIdle();
  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), 3u);
  for (const Response& response : responses) {
    if (response.id == *doomed_id) {
      EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
          << response.status.ToString();
    } else {
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.ok, 2);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServeServerTest, RetryBudgetExhaustionSurfacesUnderlyingStatus) {
  const Graph graph = RotatingModel();
  const ChipSpec chip = CrampedChip();
  ServerOptions options = FastOptions();
  options.num_workers = 1;
  // Corrupt every transfer and give the low-level reliability layer no
  // headroom, so each execution attempt terminates in kDataLoss.
  options.faults.burst_corrupt = 1'000'000'000;
  options.fault_tolerance.retry.max_retries = 0;
  options.fault_tolerance.retry.backoff_base_seconds = 1e-9;
  options.fault_tolerance.max_rollbacks = 0;
  ASSERT_GT(ServedSteps(chip, graph, options, kRotatingSlot), 1);
  Server server(chip, graph, options);
  ASSERT_TRUE(server.Start().ok());

  Request request;
  request.op_slot = kRotatingSlot;  // fc1 rotates, so transfers (and faults) happen.
  request.max_retries = 2;
  ASSERT_TRUE(server.Submit(request).ok());
  server.WaitIdle();
  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kDataLoss)
      << responses[0].status.ToString();
  EXPECT_EQ(responses[0].retries, 2);  // Whole budget was spent.
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServeServerTest, ShutdownDrainsTheQueue) {
  const Graph graph = SmallModel();
  ServerOptions options = FastOptions();
  options.num_workers = 1;
  Server server(TinyChip(8), graph, options);
  ASSERT_TRUE(server.Start().ok());
  const int submitted = 6;
  for (int i = 0; i < submitted; ++i) {
    Request request;
    request.op_slot = i % server.num_op_slots();
    ASSERT_TRUE(server.Submit(request).ok());
  }
  // No WaitIdle: shutdown itself must drain every queued request.
  ASSERT_TRUE(server.Shutdown().ok());
  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(submitted));
  for (const Response& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

TEST(ServeServerTest, ChaosCoreKillFailsOverOnceAndStaysBitIdentical) {
  const Graph graph = SmallModel();
  const ChipSpec chip = TinyChip(8);
  Server server(chip, graph, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 4; ++i) {
    Request request;
    request.op_slot = i % server.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(server.Submit(request).ok());
  }
  server.WaitIdle();

  server.KillCore(chip.num_cores - 1);
  // The health monitor must notice, replan onto the surviving cores, verify
  // the degraded model, and swap it in as epoch 1 — exactly once.
  ASSERT_TRUE(WaitFor([&] {
    return server.plan_epoch() >= 1 && server.state() == ServerState::kServing;
  }));
  EXPECT_EQ(server.plan_epoch(), 1);
  EXPECT_EQ(server.stats().failovers, 1);

  for (int i = 0; i < 4; ++i) {
    Request request;
    request.op_slot = i % server.num_op_slots();
    // Same seeds as before the kill: same inputs, now on the degraded plan.
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = server.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  server.WaitIdle();

  const std::vector<Response> responses = server.TakeResponses();
  ASSERT_EQ(responses.size(), 8u);
  int post_failover = 0;
  for (const Response& response : responses) {
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    // Bit-identical to the fault-free reference run of the same plan epoch
    // (for epoch 1: the surviving-core plan on a pristine machine).
    EXPECT_TRUE(response.bit_identical);
    if (response.plan_epoch >= 1) {
      ++post_failover;
    }
  }
  EXPECT_EQ(post_failover, 4);
  // No repeat failover for the same dead core.
  EXPECT_EQ(server.stats().failovers, 1);
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServeServerTest, MidFlightKillLosesNoResponses) {
  const Graph graph = SmallModel();
  const ChipSpec chip = TinyChip(8);
  Server server(chip, graph, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  std::int64_t accepted = 0;
  for (int i = 0; i < 12; ++i) {
    if (i == 4) {
      server.KillCore(chip.num_cores - 1);
    }
    Request request;
    request.op_slot = i % server.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = server.Submit(request);
    if (id.ok()) {
      ++accepted;  // The breaker may fail-fast some submissions mid-replan.
    } else {
      EXPECT_EQ(id.status().code(), StatusCode::kUnavailable)
          << id.status().ToString();
    }
  }
  server.WaitIdle();
  const std::vector<Response> responses = server.TakeResponses();
  EXPECT_EQ(static_cast<std::int64_t>(responses.size()), accepted);
  for (const Response& response : responses) {
    // In-flight requests that hit the dead core are re-queued across the
    // failover; only a request that keeps colliding may surface kUnavailable.
    if (response.status.ok()) {
      EXPECT_TRUE(response.bit_identical);
    } else {
      EXPECT_EQ(response.status.code(), StatusCode::kUnavailable)
          << response.status.ToString();
    }
  }
  // WaitIdle can return before the monitor finishes acting on the KillCore
  // suspicion (all 12 requests may complete on the epoch-0 plan); detection
  // itself is guaranteed, so wait for it rather than racing it.
  EXPECT_TRUE(WaitFor([&server] { return server.stats().failovers >= 1; }));
  EXPECT_TRUE(server.Shutdown().ok());
}

TEST(ServeServerTest, UnsurvivableFailureParksServerInFailed) {
  const Graph graph = SmallModel();
  const ChipSpec chip = TinyChip(4);
  Server server(chip, graph, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  for (int core = 0; core < chip.num_cores; ++core) {
    server.KillCore(core);
  }
  ASSERT_TRUE(WaitFor([&] { return server.state() == ServerState::kFailed; }));

  StatusOr<std::int64_t> rejected = server.Submit(Request{});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  const Status shutdown = server.Shutdown();
  EXPECT_FALSE(shutdown.ok());
  EXPECT_EQ(server.state(), ServerState::kStopped);
}

TEST(ServeHealthMonitorTest, AddsFailuresAndMerge) {
  TopologyHealth applied;
  applied.failed_cores = {3};
  TopologyHealth probed;
  probed.failed_cores = {3};
  EXPECT_FALSE(HealthMonitor::AddsFailures(probed, applied));
  probed.failed_cores.push_back(5);
  EXPECT_TRUE(HealthMonitor::AddsFailures(probed, applied));
  probed.failed_cores = {3};
  probed.failed_links = {{0, 1}};
  EXPECT_TRUE(HealthMonitor::AddsFailures(probed, applied));

  const TopologyHealth merged = HealthMonitor::Merge(applied, probed);
  EXPECT_EQ(merged.failed_cores, (std::vector<int>{3}));
  EXPECT_EQ(merged.failed_links, (std::vector<std::pair<int, int>>{{0, 1}}));
}

TEST(ServeHealthMonitorTest, FiresOnceUntilHealthIsApplied) {
  std::atomic<int> calls{0};
  TopologyHealth down;
  down.failed_cores = {2};
  HealthMonitor monitor(
      /*poll_seconds=*/100.0, [&] { return down; },
      [&](const TopologyHealth& merged) {
        EXPECT_EQ(merged.failed_cores, std::vector<int>{2});
        ++calls;
      });
  monitor.Start();
  monitor.NotifySuspicion();  // Immediate probe instead of the 100s timer.
  ASSERT_TRUE(WaitFor([&] { return calls.load() >= 1; }, 5.0));

  // Once the failover applied the mask, the same failure is quiet.
  monitor.SetAppliedHealth(down);
  monitor.NotifySuspicion();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(calls.load(), 1);
  monitor.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace t10
