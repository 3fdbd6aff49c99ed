// Robustness semantics of the sharded multi-chip serving tier
// (src/serve/router): every accepted request gets exactly one response even
// across redirects and hedges; a chip kill fails the shard over to survivors
// with nothing lost; a total outage (every chip killed) still answers every
// queued request and leaves an ordered shard-death sequence in the flight
// recorder; brownout admission sheds latest-deadline-first globally; and the
// seed-derived retry backoff jitter is deterministic.

#include "src/serve/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/sharded_compiler.h"
#include "src/ir/builder.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/serve/executor_pool.h"

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

RouterOptions FastOptions(int shards) {
  RouterOptions options;
  options.num_shards = shards;
  options.shard.num_workers = 2;
  options.shard.health_poll_seconds = 0.002;
  options.shard.retry_backoff_base_seconds = 0.0;
  options.poll_seconds = 0.002;
  return options;
}

// Spin-waits (with timeout) for a condition driven by background threads,
// e.g. the router's monitor marking a killed shard down.
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

// Audits the one-response-per-accepted-request invariant and returns the
// responses keyed by client id.
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

TEST(RouterTest, ServesAcrossShardsExactlyOnceEach) {
  const Graph graph = SmallModel();
  Router router(ChipSpec::ScaledIpu(8), graph, FastOptions(3));
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(router.num_shards(), 3);
  EXPECT_EQ(router.routable_shards(), 3);

  std::set<std::int64_t> accepted;
  for (int i = 0; i < 30; ++i) {
    Request request;
    request.op_slot = i % router.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = router.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    accepted.insert(*id);
  }
  router.WaitIdle();
  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());

  std::set<int> shards_used;
  for (const auto& [id, response] : by_id) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.bit_identical);
    shards_used.insert(response.shard);
  }
  // Weighted least-loaded routing over three idle shards must spread load.
  EXPECT_GE(shards_used.size(), 2u);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterTest, SubmitValidatesStateAndArguments) {
  const Graph graph = SmallModel();
  Router router(ChipSpec::ScaledIpu(8), graph, FastOptions(2));

  Request request;
  EXPECT_EQ(router.Submit(request).status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(router.Start().ok());
  request.op_slot = 99;
  EXPECT_EQ(router.Submit(request).status().code(), StatusCode::kInvalidArgument);
  request.op_slot = 0;
  request.max_retries = -1;
  EXPECT_EQ(router.Submit(request).status().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(router.Shutdown().ok());
  request.max_retries = 2;
  EXPECT_EQ(router.Submit(request).status().code(), StatusCode::kFailedPrecondition);
  // Shutdown is idempotent.
  EXPECT_TRUE(router.Shutdown().ok());
}

// A replicated router compiles its model once and every replica adopts
// that compile: starting three replicas costs the searches of one compile.
TEST(RouterTest, ReplicasShareOneCompile) {
  const Graph graph = SmallModel();
  obs::Counter& searches = obs::MetricsRegistry::Global().GetCounter("compiler.search.searches");
  std::int64_t before = searches.value();
  const CompiledModel bare = Compiler(ChipSpec::ScaledIpu(8)).Compile(graph);
  ASSERT_TRUE(bare.fits);
  const std::int64_t one_compile = searches.value() - before;
  ASSERT_GT(one_compile, 0);

  before = searches.value();
  Router router(ChipSpec::ScaledIpu(8), graph, FastOptions(3));
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(router.num_shards(), 3);
  EXPECT_EQ(searches.value() - before, one_compile);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterTest, ChipKillFailsOverToSurvivorsWithNothingLost) {
  const Graph graph = SmallModel();
  obs::EventJournal journal;
  RouterOptions options = FastOptions(3);
  options.journal = &journal;
  Router router(ChipSpec::ScaledIpu(8), graph, options);
  ASSERT_TRUE(router.Start().ok());

  std::set<std::int64_t> accepted;
  auto submit_batch = [&](int count, int base) {
    for (int i = 0; i < count; ++i) {
      Request request;
      request.op_slot = (base + i) % router.num_op_slots();
      request.input_seed = static_cast<std::uint64_t>(base + i);
      StatusOr<std::int64_t> id = router.Submit(request);
      if (id.ok()) {
        accepted.insert(*id);
      }
    }
  };

  submit_batch(12, 0);
  router.KillChip(0);
  ASSERT_TRUE(WaitFor([&] {
    return router.shard_snapshot(0).state == ShardState::kDown;
  }));
  // Client ids are monotonic: everything from here on postdates the kill.
  const std::int64_t post_kill_boundary = accepted.empty() ? 0 : *accepted.rbegin() + 1;
  submit_batch(12, 12);
  router.WaitIdle();

  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  // Work admitted after the kill routes only to the two survivors (pre-kill
  // work may legitimately have completed on shard 0 before the chip died).
  for (const auto& [id, response] : by_id) {
    if (response.status.ok()) {
      EXPECT_TRUE(response.bit_identical);
      if (id >= post_kill_boundary) {
        EXPECT_NE(response.shard, 0);
      }
    }
  }
  EXPECT_EQ(router.routable_shards(), 2);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.shard_downs, 1);
  EXPECT_GE(stats.rebalances, 1);

  // Exactly one router-level shard_down in the journal.
  int shard_down_events = 0;
  for (const obs::Event& event : journal.Snapshot()) {
    if (event.event == "router.shard_down") {
      ++shard_down_events;
    }
  }
  EXPECT_EQ(shard_down_events, 1);
  EXPECT_TRUE(router.Shutdown().ok());  // Two survivors: shutdown is OK.
}

// Satellite: total-outage semantics. Every chip killed in sequence; all
// queued/in-flight requests are answered with errors (none lost, none
// duplicated), the journal announces router.total_outage, and the flight
// recorder's final dump carries the shard deaths in kill order.
TEST(RouterTest, TotalOutageAnswersEverythingAndRecordsOrderedDeaths) {
  const Graph graph = SmallModel();
  obs::EventJournal journal;
  const std::string dump_path =
      ::testing::TempDir() + "/router_total_outage_fr.json";
  RouterOptions options = FastOptions(3);
  options.journal = &journal;
  options.flight_recorder_path = dump_path;
  // Slow the shards down so killed chips still hold queued work.
  options.shard.num_workers = 1;
  options.shard.pace_time_scale = 200000.0;
  Router router(ChipSpec::ScaledIpu(8), graph, options);
  ASSERT_TRUE(router.Start().ok());

  std::set<std::int64_t> accepted;
  for (int i = 0; i < 18; ++i) {
    Request request;
    request.op_slot = i % router.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = router.Submit(request);
    if (id.ok()) {
      accepted.insert(*id);
    }
  }
  ASSERT_FALSE(accepted.empty());

  for (int shard = 0; shard < 3; ++shard) {
    router.KillChip(shard);
    ASSERT_TRUE(WaitFor([&] {
      return router.shard_snapshot(shard).state == ShardState::kDown;
    })) << "shard " << shard << " never went down";
  }
  // The total-outage announcement (and its flight-recorder dump) runs in the
  // monitor sweep right after the last shard-down mark; wait for it before
  // inspecting the journal and the dump file.
  ASSERT_TRUE(WaitFor([&] {
    for (const obs::Event& event : journal.Snapshot()) {
      if (event.event == "router.total_outage") {
        return true;
      }
    }
    return false;
  }));
  router.WaitIdle();

  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  std::int64_t errored = 0;
  for (const auto& [id, response] : by_id) {
    // A request that finished before the first chip died may be OK (and must
    // have passed its audit); everything queued or in flight at the outage
    // is answered with a terminal error, never dropped.
    if (response.status.ok()) {
      EXPECT_TRUE(response.bit_identical);
    } else {
      ++errored;
    }
  }
  EXPECT_GE(errored, 1);
  EXPECT_EQ(router.routable_shards(), 0);
  EXPECT_EQ(router.stats().shard_downs, 3);

  std::vector<int> death_order;
  for (const obs::Event& event : journal.Snapshot()) {
    if (event.event == "router.shard_down") {
      death_order.push_back(event.detail.find("shard 0") == 0   ? 0
                            : event.detail.find("shard 1") == 0 ? 1
                                                                : 2);
    }
  }
  EXPECT_EQ(death_order, (std::vector<int>{0, 1, 2}));

  // The flight recorder's last dump (fired at total outage) holds the full
  // ordered sequence. The journal event above races the file write, so poll
  // until the finished dump is on disk.
  std::string dump;
  ASSERT_TRUE(WaitFor([&] {
    std::ifstream in(dump_path);
    if (!in.good()) {
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    dump = buffer.str();
    return dump.find("total outage") != std::string::npos &&
           dump.find("shard 2 lost") != std::string::npos;
  }));
  const std::string::size_type d0 = dump.find("shard 0 lost");
  const std::string::size_type d1 = dump.find("shard 1 lost");
  const std::string::size_type d2 = dump.find("shard 2 lost");
  ASSERT_NE(d0, std::string::npos);
  ASSERT_NE(d1, std::string::npos);
  ASSERT_NE(d2, std::string::npos);
  EXPECT_LT(d0, d1);
  EXPECT_LT(d1, d2);

  // No shard survived: shutdown reports the (shared) failure.
  EXPECT_FALSE(router.Shutdown().ok());
  std::remove(dump_path.c_str());
}

TEST(RouterTest, HedgedRetryDeliversExactlyOneResponse) {
  const Graph graph = SmallModel();
  RouterOptions options = FastOptions(2);
  // One slow paced worker per shard (~0.2s+ service) with the hedge point at
  // 1% of a 20s deadline: queued requests reliably cross it, nothing expires.
  options.shard.num_workers = 1;
  options.shard.pace_time_scale = 100000.0;
  options.hedge_fraction = 0.01;
  Router router(ChipSpec::ScaledIpu(8), graph, options);
  ASSERT_TRUE(router.Start().ok());

  std::set<std::int64_t> accepted;
  for (int i = 0; i < 6; ++i) {
    Request request;
    request.op_slot = i % router.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    request.deadline_seconds = 20.0;  // Generous: hedges fire, nothing expires.
    StatusOr<std::int64_t> id = router.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    accepted.insert(*id);
  }
  router.WaitIdle();
  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  for (const auto& [id, response] : by_id) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.bit_identical);
  }
  const RouterStats stats = router.stats();
  EXPECT_GE(stats.hedges, 1);
  // Every hedge has a loser, and the router swallowed all of them.
  EXPECT_GE(stats.hedge_wasted, 1);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterTest, BrownoutShedsLatestDeadlineForEarlierArrival) {
  const Graph graph = SmallModel();
  obs::EventJournal journal;
  RouterOptions options = FastOptions(1);
  options.journal = &journal;
  options.shard.num_workers = 1;
  options.shard.queue_capacity = 1;
  options.shard.pace_time_scale = 100000.0;  // Worker busy ~0.2s per request.
  options.hedge_fraction = 0.0;
  Router router(ChipSpec::ScaledIpu(8), graph, options);
  ASSERT_TRUE(router.Start().ok());

  // A occupies the worker; B fills the 1-deep queue with a late deadline.
  Request occupy;
  occupy.op_slot = 0;
  occupy.deadline_seconds = 60.0;
  StatusOr<std::int64_t> a = router.Submit(occupy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(WaitFor([&] { return router.shard_snapshot(0).queue_depth == 0; }));

  Request late;
  late.op_slot = 0;
  late.deadline_seconds = 50.0;
  StatusOr<std::int64_t> b = router.Submit(late);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  // An incoming request with no deadline is "latest" by definition: shed.
  Request no_deadline;
  no_deadline.op_slot = 0;
  EXPECT_EQ(router.Submit(no_deadline).status().code(), StatusCode::kResourceExhausted);

  // An earlier-deadline arrival evicts B instead of being shed.
  Request early;
  early.op_slot = 0;
  early.deadline_seconds = 5.0;
  StatusOr<std::int64_t> c = router.Submit(early);
  ASSERT_TRUE(c.ok()) << c.status().ToString();

  router.WaitIdle();
  std::map<std::int64_t, Response> by_id;
  for (Response& response : router.TakeResponses()) {
    by_id.emplace(response.id, std::move(response));
  }
  ASSERT_TRUE(by_id.count(*a));
  ASSERT_TRUE(by_id.count(*b));
  ASSERT_TRUE(by_id.count(*c));
  EXPECT_TRUE(by_id[*a].status.ok());
  EXPECT_EQ(by_id[*b].status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(by_id[*c].status.ok());
  EXPECT_GE(router.stats().brownout_shed, 1);

  bool logged = false;
  for (const obs::Event& event : journal.Snapshot()) {
    if (event.event == "router.brownout_shed") {
      logged = true;
    }
  }
  EXPECT_TRUE(logged);
  EXPECT_TRUE(router.Shutdown().ok());
}

// Satellite: deterministic seed-derived retry backoff jitter. Same seed =>
// identical schedule; jitter stays within [0.5x, 1.0x) of the exponential
// envelope so synchronized retries cannot stampede a recovering shard.
TEST(RouterBackoffTest, JitterIsDeterministicAndBounded) {
  const double base = 0.010;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double envelope = base * static_cast<double>(1 << attempt);
    for (const std::uint64_t key : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
      const double first = RetryBackoffSeconds(base, attempt, key);
      const double second = RetryBackoffSeconds(base, attempt, key);
      EXPECT_EQ(first, second) << "attempt " << attempt << " key " << key;
      EXPECT_GE(first, 0.5 * envelope);
      EXPECT_LT(first, envelope);
    }
  }
}

TEST(RouterBackoffTest, DifferentKeysDesynchronize) {
  // Two requests retrying in lockstep must not share a schedule: over many
  // keys the jitter must actually vary (catching a constant-jitter bug).
  std::set<std::int64_t> buckets;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const double backoff = RetryBackoffSeconds(0.010, 3, key);
    buckets.insert(static_cast<std::int64_t>(backoff * 1e7));
  }
  EXPECT_GE(buckets.size(), 32u);
}

// ---------------------------------------------------------------------------
// Pipeline mode: one model partitioned across a chain of per-chip stages.
// ---------------------------------------------------------------------------

Graph PipelineModel() {
  Graph g("serve-pipe");
  g.Add(MatMulOp("fc1", 16, 32, 32, DataType::kF32, "x", "w1", "h1"));
  g.Add(ElementwiseOp("relu", {16, 32}, DataType::kF32, "h1", "h2"));
  g.Add(MatMulOp("fc2", 16, 32, 32, DataType::kF32, "h2", "w2", "h3"));
  g.Add(MatMulOp("fc3", 16, 32, 16, DataType::kF32, "h3", "w3", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  g.MarkWeight("w3");
  return g;
}

ClusterSpec PipelineCluster(int chips) {
  return ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(8), chips);
}

TEST(RouterPipelineTest, ChainsDeliverExactlyOnceWithHandoffs) {
  const Graph graph = PipelineModel();
  Router router(PipelineCluster(4), graph, FastOptions(0));
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(router.mode(), ShardMode::kPipeline);
  EXPECT_EQ(router.num_shards(), 4);
  // A pipeline request means "run the whole model": one logical slot.
  EXPECT_EQ(router.num_op_slots(), 1);

  std::set<std::int64_t> accepted;
  for (int i = 0; i < 16; ++i) {
    Request request;
    request.op_slot = 0;
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = router.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    accepted.insert(*id);
  }
  router.WaitIdle();
  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  for (const auto& [id, response] : by_id) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    // The chain's audit bit is the AND over every stage's operators.
    EXPECT_TRUE(response.bit_identical);
    // The answer comes off the final stage.
    EXPECT_EQ(response.shard, 3);
  }
  // Every chain crosses every cut exactly once: 16 requests x 3 handoffs.
  EXPECT_EQ(router.stats().handoffs, 16 * 3);
  EXPECT_TRUE(router.Shutdown().ok());
}

// The pipeline router serves exactly what ShardedCompiler produced: one
// sharded compile (no per-stage compile at Start), one shard per compiled
// stage, and every handoff billed from the stage's outgoing transfer program.
TEST(RouterPipelineTest, StagesServeTheShardedCompile) {
  const Graph graph = PipelineModel();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& compiles = metrics.GetCounter("cluster.compile.count");
  obs::Counter& searches = metrics.GetCounter("compiler.search.searches");
  obs::Histogram& handoff_seconds = metrics.GetHistogram("router.pipeline.handoff.seconds");
  std::int64_t before = searches.value();
  const ShardedCompiledModel bare = ShardedCompiler(PipelineCluster(4)).Compile(graph);
  ASSERT_TRUE(bare.fits) << bare.unfit_reason;
  const std::int64_t one_compile = searches.value() - before;

  const std::int64_t compiles_before = compiles.value();
  before = searches.value();
  Router router(PipelineCluster(4), graph, FastOptions(0));
  ASSERT_TRUE(router.Start().ok());
  EXPECT_EQ(compiles.value() - compiles_before, 1);
  EXPECT_EQ(searches.value() - before, one_compile);
  ASSERT_EQ(router.num_shards(), bare.num_stages());

  const double billed_before = handoff_seconds.sum();
  Request request;
  request.op_slot = 0;
  ASSERT_TRUE(router.Submit(request).ok());
  router.WaitIdle();
  ASSERT_EQ(router.TakeResponses().size(), 1u);
  double one_chain = 0.0;
  for (int s = 0; s + 1 < bare.num_stages(); ++s) {
    one_chain += bare.stages[static_cast<std::size_t>(s)].transfer.interchip_seconds;
  }
  EXPECT_GT(one_chain, 0.0);
  // The histogram sum may already hold earlier tests' handoffs: compare the
  // delta up to its rounding.
  EXPECT_NEAR(handoff_seconds.sum() - billed_before, one_chain, 1e-9 * one_chain);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterPipelineTest, RejectsNonZeroOpSlot) {
  const Graph graph = PipelineModel();
  Router router(PipelineCluster(2), graph, FastOptions(0));
  ASSERT_TRUE(router.Start().ok());
  Request request;
  request.op_slot = 1;
  EXPECT_EQ(router.Submit(request).status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterPipelineTest, InfeasiblePartitionFailsStart) {
  Graph graph = PipelineModel();
  ChipSpec chip = ChipSpec::ScaledIpu(2);
  chip.core_memory_bytes = 1024;  // No stage of the model can fit.
  Router router(ClusterSpec::Homogeneous(chip, 2), graph, FastOptions(0));
  EXPECT_EQ(router.Start().code(), StatusCode::kFailedPrecondition);
}

// Satellite: pipeline failure semantics under a mid-chain core kill. Exactly
// one stage replans (its epoch bumps, every other stage stays at 0), no
// response is lost or duplicated, and surviving chains keep a clean
// bit-identity audit.
TEST(RouterPipelineTest, CoreKillReplansOnlyTheDeadStage) {
  const Graph graph = PipelineModel();
  obs::EventJournal journal;
  RouterOptions options = FastOptions(0);
  options.journal = &journal;
  Router router(PipelineCluster(4), graph, options);
  ASSERT_TRUE(router.Start().ok());

  std::set<std::int64_t> accepted;
  auto submit_batch = [&](int count, int base) {
    for (int i = 0; i < count; ++i) {
      Request request;
      request.op_slot = 0;
      request.input_seed = static_cast<std::uint64_t>(base + i);
      StatusOr<std::int64_t> id = router.Submit(request);
      if (id.ok()) {
        accepted.insert(*id);
      }
    }
  };

  submit_batch(8, 0);
  router.KillCore(/*shard=*/1, /*core=*/0);
  ASSERT_TRUE(WaitFor([&] { return router.shard_snapshot(1).plan_epoch >= 1; }))
      << "stage 1 never replanned";
  submit_batch(8, 8);
  router.WaitIdle();

  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  for (const auto& [id, response] : by_id) {
    if (response.status.ok()) {
      EXPECT_TRUE(response.bit_identical);
      EXPECT_EQ(response.shard, 3);
    }
  }
  // Exactly one stage re-planned; the rest never left epoch 0.
  EXPECT_GE(router.shard_snapshot(1).plan_epoch, 1);
  for (const int stage : {0, 2, 3}) {
    EXPECT_EQ(router.shard_snapshot(stage).plan_epoch, 0) << "stage " << stage;
  }
  EXPECT_EQ(router.stats().shard_downs, 0);
  EXPECT_EQ(router.routable_shards(), 4);
  EXPECT_TRUE(router.Shutdown().ok());
}

// Satellite: a chip kill takes its stage down permanently. A stage has no
// replica, so chains that must cross it are answered with an error — exactly
// once each, nothing lost — and the journal records the stage loss.
TEST(RouterPipelineTest, ChipKillFailsChainsCrossingTheStageExactlyOnce) {
  const Graph graph = PipelineModel();
  obs::EventJournal journal;
  RouterOptions options = FastOptions(0);
  options.journal = &journal;
  Router router(PipelineCluster(4), graph, options);
  ASSERT_TRUE(router.Start().ok());

  std::set<std::int64_t> accepted;
  auto submit_batch = [&](int count, int base) {
    for (int i = 0; i < count; ++i) {
      Request request;
      request.op_slot = 0;
      request.input_seed = static_cast<std::uint64_t>(base + i);
      StatusOr<std::int64_t> id = router.Submit(request);
      if (id.ok()) {
        accepted.insert(*id);
      }
    }
  };

  submit_batch(8, 0);
  router.KillChip(2);
  ASSERT_TRUE(WaitFor([&] {
    return router.shard_snapshot(2).state == ShardState::kDown;
  }));
  const std::int64_t post_kill_boundary = accepted.empty() ? 0 : *accepted.rbegin() + 1;
  submit_batch(8, 8);
  router.WaitIdle();

  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  for (const auto& [id, response] : by_id) {
    if (id >= post_kill_boundary) {
      // Every post-kill chain must cross dead stage 2: answered with an
      // error, never dropped.
      EXPECT_FALSE(response.status.ok()) << "id " << id;
    } else if (response.status.ok()) {
      EXPECT_TRUE(response.bit_identical);
    }
  }
  EXPECT_EQ(router.stats().shard_downs, 1);
  EXPECT_EQ(router.routable_shards(), 3);
  // recover_on_chip_loss is off by default: a chip loss must keep these
  // stage-down semantics untouched — no repartition, epoch stays 0.
  EXPECT_EQ(router.stats().recoveries, 0);
  EXPECT_EQ(router.stats().cluster_epoch, 0);
  EXPECT_EQ(router.num_shards(), 4);

  bool stage_down_logged = false;
  for (const obs::Event& event : journal.Snapshot()) {
    if (event.event == "router.pipeline.stage_down") {
      stage_down_logged = true;
    }
  }
  EXPECT_TRUE(stage_down_logged);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterPipelineTest, DeadlineBudgetPropagatesDownTheChain) {
  const Graph graph = PipelineModel();
  Router router(PipelineCluster(3), graph, FastOptions(0));
  ASSERT_TRUE(router.Start().ok());

  // An already-hopeless budget expires somewhere down the chain and comes
  // back as deadline_exceeded — one response, not a lost chain.
  Request hopeless;
  hopeless.op_slot = 0;
  hopeless.deadline_seconds = 1e-9;
  StatusOr<std::int64_t> doomed = router.Submit(hopeless);
  // Admission may reject it outright (also fine) — but if accepted, it must
  // resolve as deadline_exceeded.
  Request generous;
  generous.op_slot = 0;
  generous.deadline_seconds = 30.0;
  StatusOr<std::int64_t> fine = router.Submit(generous);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  router.WaitIdle();

  std::map<std::int64_t, Response> by_id;
  for (Response& response : router.TakeResponses()) {
    by_id.emplace(response.id, std::move(response));
  }
  if (doomed.ok()) {
    ASSERT_TRUE(by_id.count(*doomed));
    EXPECT_EQ(by_id[*doomed].status.code(), StatusCode::kDeadlineExceeded);
  }
  ASSERT_TRUE(by_id.count(*fine));
  EXPECT_TRUE(by_id[*fine].status.ok()) << by_id[*fine].status.ToString();
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterTest, ExpiredBudgetIsRefusedBeforeRouting) {
  // Every attempt — route, redirect, hedge — recomputes the REMAINING
  // deadline budget under the router lock before submitting, so time spent
  // queued, failing over or parked is charged instead of silently granting
  // the shard the original end-to-end window. The route path is the
  // observable anchor: a budget that is already gone by routing time must
  // come back kDeadlineExceeded, never reach a shard with fresh slack.
  const Graph graph = SmallModel();
  Router router(ChipSpec::ScaledIpu(8), graph, FastOptions(2));
  ASSERT_TRUE(router.Start().ok());

  Request hopeless;
  hopeless.op_slot = 0;
  hopeless.deadline_seconds = 1e-12;  // Expired before SubmitAttempt runs.
  const StatusOr<std::int64_t> refused = router.Submit(hopeless);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDeadlineExceeded);

  // A live budget still routes and completes.
  Request generous;
  generous.op_slot = 0;
  generous.deadline_seconds = 30.0;
  const StatusOr<std::int64_t> fine = router.Submit(generous);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  router.WaitIdle();
  bool answered = false;
  for (const Response& response : router.TakeResponses()) {
    if (response.id == *fine) {
      answered = true;
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    }
  }
  EXPECT_TRUE(answered);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterTest, RefusedAdmissionIsNotCountedAsSubmitted) {
  // router.submitted.count moves only for admissions that routed: a request
  // refused synchronously (here an already-expired budget) is withdrawn
  // from stats().submitted, and the counter must agree with it.
  const Graph graph = SmallModel();
  Router router(ChipSpec::ScaledIpu(8), graph, FastOptions(2));
  ASSERT_TRUE(router.Start().ok());
  const obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("router.submitted.count");
  const std::int64_t before = counter.value();

  Request hopeless;
  hopeless.op_slot = 0;
  hopeless.deadline_seconds = 1e-12;  // Expired before the route.
  ASSERT_EQ(router.Submit(hopeless).status().code(), StatusCode::kDeadlineExceeded);
  Request generous;
  generous.op_slot = 0;
  generous.deadline_seconds = 30.0;
  ASSERT_TRUE(router.Submit(generous).ok());
  router.WaitIdle();

  EXPECT_EQ(router.stats().submitted, 1);
  EXPECT_EQ(counter.value() - before, router.stats().submitted);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterPipelineTest, SingleReplicaStagesAreNeverHedgedOrDrained) {
  // Hedges and breaker drains act across the replicas of a stage; a pipeline
  // stage has one replica, so neither may fire even when every chain runs
  // far past its hedge point.
  const Graph graph = PipelineModel();
  RouterOptions options = FastOptions(0);
  options.shard.num_workers = 1;
  options.shard.pace_time_scale = 20000.0;  // Slow paced stages.
  options.hedge_fraction = 0.01;            // Hedge point at 0.2s of 20s.
  Router router(PipelineCluster(3), graph, options);
  ASSERT_TRUE(router.Start().ok());

  std::set<std::int64_t> accepted;
  for (int i = 0; i < 6; ++i) {
    Request request;
    request.op_slot = 0;
    request.input_seed = static_cast<std::uint64_t>(i);
    request.deadline_seconds = 20.0;
    StatusOr<std::int64_t> id = router.Submit(request);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    accepted.insert(*id);
  }
  router.WaitIdle();
  const std::map<std::int64_t, Response> by_id =
      AuditExactlyOnce(accepted, router.TakeResponses());
  double slowest = 0.0;
  for (const auto& [id, response] : by_id) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.bit_identical);
    slowest = std::max(slowest, response.latency_seconds);
  }
  // The premise: chains outlived their hedge point.
  EXPECT_GT(slowest, 0.01 * 20.0);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.hedges, 0);
  EXPECT_EQ(stats.hedge_wasted, 0);
  EXPECT_EQ(stats.drains, 0);
  EXPECT_TRUE(router.Shutdown().ok());
}

TEST(RouterBackoffTest, ZeroBaseStaysZero) {
  // Tests run with retry_backoff_base_seconds = 0 for speed; jitter must not
  // manufacture a delay out of nothing.
  EXPECT_EQ(RetryBackoffSeconds(0.0, 0, 7), 0.0);
  EXPECT_EQ(RetryBackoffSeconds(0.0, 5, 7), 0.0);
}

}  // namespace
}  // namespace serve
}  // namespace t10
