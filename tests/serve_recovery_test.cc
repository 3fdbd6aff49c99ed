// Elastic pipeline recovery (src/serve/router + RepartitionDegraded):
// losing a stage's chip with recover_on_chip_loss set drains the pipeline,
// repartitions the model over the surviving chips, verifier-gates the cut
// and hot-swaps the stage chain under a new cluster epoch — in-flight
// chains park and resume at their exact operator, nothing is lost or
// duplicated, and post-recovery responses stay bit-identical. When no
// feasible repartition exists the router browns out (new admissions refuse
// kUnavailable) while still answering everything in flight.

#include "src/serve/router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/ir/builder.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"

namespace t10 {
namespace serve {
namespace {

Graph PipelineModel() {
  Graph g("recover-pipe");
  g.Add(MatMulOp("fc1", 16, 32, 32, DataType::kF32, "x", "w1", "h1"));
  g.Add(ElementwiseOp("relu", {16, 32}, DataType::kF32, "h1", "h2"));
  g.Add(MatMulOp("fc2", 16, 32, 32, DataType::kF32, "h2", "w2", "h3"));
  g.Add(MatMulOp("fc3", 16, 32, 16, DataType::kF32, "h3", "w3", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  g.MarkWeight("w3");
  return g;
}

RouterOptions RecoveryOptions() {
  RouterOptions options;
  options.shard.num_workers = 2;
  options.shard.health_poll_seconds = 0.002;
  options.shard.retry_backoff_base_seconds = 0.0;
  options.poll_seconds = 0.002;
  options.recover_on_chip_loss = true;
  return options;
}

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

std::map<std::int64_t, Response> AuditExactlyOnce(
    const std::set<std::int64_t>& accepted, std::vector<Response> responses) {
  std::map<std::int64_t, Response> by_id;
  for (Response& response : responses) {
    EXPECT_TRUE(accepted.count(response.id)) << "unknown response id " << response.id;
    EXPECT_FALSE(by_id.count(response.id)) << "duplicated response id " << response.id;
    by_id.emplace(response.id, std::move(response));
  }
  for (const std::int64_t id : accepted) {
    EXPECT_TRUE(by_id.count(id)) << "lost response for id " << id;
  }
  return by_id;
}

int CountEvents(const obs::EventJournal& journal, const std::string& name) {
  int count = 0;
  for (const obs::Event& event : journal.Snapshot()) {
    if (event.event == name) {
      ++count;
    }
  }
  return count;
}

// The tentpole scenario: a 3-stage pipeline loses its middle chip mid-
// traffic and recovers without intervention — exactly one cluster
// repartition, every chain answered OK and bit-identical, and the dead
// chip's simulated storage released.
TEST(RouterRecoveryTest, ChipLossRepartitionsAndKeepsServing) {
  const Graph graph = PipelineModel();
  obs::EventJournal journal;
  RouterOptions options = RecoveryOptions();
  options.journal = &journal;
  // Stage servers journal too: server.storage_released below comes from the
  // retired dead-chip server, not the router.
  options.shard.journal = &journal;
  Router router(ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(8), 3), graph, options);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_EQ(router.num_shards(), 3);

  std::set<std::int64_t> accepted;
  auto submit_batch = [&](int count, int base) {
    for (int i = 0; i < count; ++i) {
      Request request;
      request.op_slot = 0;
      request.input_seed = static_cast<std::uint64_t>(base + i);
      request.max_retries = 4;
      StatusOr<std::int64_t> id = router.Submit(request);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      accepted.insert(*id);
    }
  };

  submit_batch(8, 0);
  router.KillChip(1);
  ASSERT_TRUE(WaitFor([&] {
    const RouterStats stats = router.stats();
    return stats.recoveries >= 1 || stats.recovery_failures >= 1;
  })) << "cluster recovery never ran";
  submit_batch(8, 8);
  router.WaitIdle();

  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  for (const auto& [id, response] : by_id) {
    EXPECT_TRUE(response.status.ok()) << "id " << id << ": " << response.status.ToString();
    // Post-recovery execution runs the same operators on the same inputs:
    // the audit bit must hold across the repartition.
    EXPECT_TRUE(response.bit_identical) << "id " << id;
  }

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.recovery_failures, 0);
  EXPECT_EQ(stats.cluster_epoch, 1);
  EXPECT_EQ(stats.shard_downs, 1);
  // The 4-op model re-cut over the 2 survivors: a shorter chain, every
  // stage routable again.
  EXPECT_EQ(router.num_shards(), 2);
  EXPECT_EQ(router.routable_shards(), 2);

  EXPECT_EQ(CountEvents(journal, "router.cluster.repartition"), 1);
  EXPECT_EQ(CountEvents(journal, "router.cluster.hot_swap"), 1);
  EXPECT_GE(CountEvents(journal, "router.cluster.drain"), 1);
  // Retiring the dead chip's server frees its simulated scratchpads.
  EXPECT_GE(CountEvents(journal, "server.storage_released"), 1);
  EXPECT_TRUE(router.Shutdown().ok());
}

// Recovery recompiles once, through ShardedCompiler::RecompileDegraded, and
// the hot swap reuses exactly the stage servers whose compiled stage the
// recompile kept.
TEST(RouterRecoveryTest, ChipLossReusesTheStagesRecompileKept) {
  const Graph graph = PipelineModel();
  obs::EventJournal journal;
  RouterOptions options = RecoveryOptions();
  options.journal = &journal;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& recompiles = metrics.GetCounter("cluster.recompile.count");
  Router router(ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(8), 4), graph, options);
  ASSERT_TRUE(router.Start().ok());
  const std::int64_t recompiles_before = recompiles.value();

  // One op per chip; the re-cut over chips 0, 2, 3 merges ops 0-1 onto chip
  // 0 and keeps the last two stages where they were.
  router.KillChip(1);
  ASSERT_TRUE(WaitFor([&] {
    const RouterStats stats = router.stats();
    return stats.recoveries >= 1 || stats.recovery_failures >= 1;
  })) << "cluster recovery never ran";
  ASSERT_EQ(router.stats().recoveries, 1);
  EXPECT_EQ(router.num_shards(), 3);
  EXPECT_EQ(recompiles.value() - recompiles_before, 1);

  const int kept =
      static_cast<int>(metrics.GetGauge("cluster.recompile.reused_stages").value());
  EXPECT_EQ(kept, 2);
  // The hot-swap event is journaled just after the recovery is counted.
  ASSERT_TRUE(WaitFor([&] { return CountEvents(journal, "router.cluster.hot_swap") == 1; }));
  std::string hot_swap;
  for (const obs::Event& event : journal.Snapshot()) {
    if (event.event == "router.cluster.hot_swap") {
      hot_swap = event.detail;
    }
  }
  EXPECT_NE(hot_swap.find(std::to_string(kept) + " stage server(s) reused"), std::string::npos)
      << hot_swap;

  Request request;
  request.op_slot = 0;
  ASSERT_TRUE(router.Submit(request).ok());
  router.WaitIdle();
  const std::vector<Response> responses = router.TakeResponses();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses.front().status.ok()) << responses.front().status.ToString();
  EXPECT_TRUE(responses.front().bit_identical);
  EXPECT_TRUE(router.Shutdown().ok());
}

// Losing the only chip leaves no survivor to repartition onto: the router
// must brown out — recovery marked failed, new admissions refused with
// kUnavailable — while every already-accepted chain is still answered.
TEST(RouterRecoveryTest, InfeasibleRepartitionBrownsOutWithoutCrashing) {
  const Graph graph = PipelineModel();
  obs::EventJournal journal;
  RouterOptions options = RecoveryOptions();
  options.journal = &journal;
  Router router(ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(8), 1), graph, options);
  ASSERT_TRUE(router.Start().ok());
  ASSERT_EQ(router.num_shards(), 1);

  std::set<std::int64_t> accepted;
  for (int i = 0; i < 4; ++i) {
    Request request;
    request.op_slot = 0;
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = router.Submit(request);
    if (id.ok()) {
      accepted.insert(*id);
    }
  }
  router.KillChip(0);
  ASSERT_TRUE(WaitFor([&] { return router.stats().recovery_failures >= 1; }))
      << "infeasible repartition never surfaced";

  Request refused;
  refused.op_slot = 0;
  const StatusOr<std::int64_t> rejected = router.Submit(refused);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  router.WaitIdle();
  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  for (const auto& [id, response] : by_id) {
    // Chains still in flight at the kill drain through the dead stage with
    // an error; chains that beat it finish OK — either way, answered
    // exactly once (the audit above), never dropped.
    if (response.status.ok()) {
      EXPECT_TRUE(response.bit_identical) << "id " << id;
    }
  }

  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.recoveries, 0);
  EXPECT_EQ(stats.recovery_failures, 1);
  EXPECT_EQ(stats.cluster_epoch, 0);
  EXPECT_EQ(CountEvents(journal, "router.cluster.park_failed"), 1);
  // The dead stage stays in the chain after a failed recovery, so shutdown
  // reports its loss; what matters here is that it returns at all.
  const Status stopped = router.Shutdown();
  (void)stopped;
}

// A second loss after a successful recovery folds into a second recovery:
// the epoch keeps advancing one repartition at a time.
TEST(RouterRecoveryTest, SecondChipLossRecoversAgain) {
  const Graph graph = PipelineModel();
  RouterOptions options = RecoveryOptions();
  Router router(ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(8), 3), graph, options);
  ASSERT_TRUE(router.Start().ok());

  std::set<std::int64_t> accepted;
  auto submit_batch = [&](int count, int base) {
    for (int i = 0; i < count; ++i) {
      Request request;
      request.op_slot = 0;
      request.input_seed = static_cast<std::uint64_t>(base + i);
      request.max_retries = 4;
      StatusOr<std::int64_t> id = router.Submit(request);
      if (id.ok()) {
        accepted.insert(*id);
      }
    }
  };

  submit_batch(4, 0);
  router.KillChip(2);
  ASSERT_TRUE(WaitFor([&] { return router.stats().recoveries >= 1; }));
  submit_batch(4, 4);
  router.KillChip(0);
  ASSERT_TRUE(WaitFor([&] { return router.stats().recoveries >= 2; }))
      << "second chip loss did not trigger a second repartition";
  submit_batch(4, 8);
  router.WaitIdle();

  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  for (const auto& [id, response] : by_id) {
    if (response.status.ok()) {
      EXPECT_TRUE(response.bit_identical) << "id " << id;
    }
  }
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.recoveries, 2);
  EXPECT_EQ(stats.cluster_epoch, 2);
  // The whole model now serves from the single surviving chip.
  EXPECT_EQ(router.num_shards(), 1);
  EXPECT_TRUE(router.Shutdown().ok());
}

}  // namespace
}  // namespace serve
}  // namespace t10
