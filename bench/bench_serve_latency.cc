// Serving-latency bench: drives the resilient serving runtime (src/serve)
// with a closed-loop QPS sweep and reports per-scenario p50/p99 response
// latency plus the admission-control shed rate. Three fault environments are
// compared on the same request schedule: fault-free, 1% transient link
// corruption (absorbed by the checksummed-retry layer; the retries column
// counts its link retransmissions), and a mid-run persistent core kill that
// forces an online degraded-plan failover. The server runs the compiled
// active plans, and faults only bite where a plan shifts, so these scenarios
// serve a model on small scratchpads whose compiled plans rotate.
//
// The second half benches the sharded multi-chip tier (serve::Router): a
// 1/2/4-shard saturated-throughput sweep plus a 4-shard mid-run chip kill
// that reports lost responses and the surviving-traffic p99 versus the
// pre-kill p99. Shard workers run under simulated-time pacing
// (ServerOptions::pace_time_scale) so a worker is occupied in proportion to
// the op's cost-model seconds — on a small host the sweep then measures the
// router's scaling behaviour rather than host-core contention. Set
// T10_BENCH_JSON=<path> to write the sweep as a JSON baseline
// (BENCH_serve_scaling.json tracks it in-repo).

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/ir/builder.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/serve/router.h"
#include "src/serve/server.h"

namespace t10 {
namespace {

// The sharded sweep's model: on full-size scratchpads its compiled plans are
// spatial, so pacing, not link traffic, sets each shard's service time.
Graph ServedModel() {
  Graph g("serve-mlp");
  g.Add(MatMulOp("fc1", 16, 32, 32, DataType::kF32, "x", "w1", "h1"));
  g.Add(ElementwiseOp("relu", {16, 32}, DataType::kF32, "h1", "h2"));
  g.Add(MatMulOp("fc2", 16, 32, 16, DataType::kF32, "h2", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  return g;
}

// 768 B scratchpads are too small for fc1/fc2's spatial plans, so the
// compiler rotates their operands around 7-core rings (also on the 7 cores
// that survive the core kill) and every request moves bytes over links.
ChipSpec CrampedChip() {
  ChipSpec chip = ChipSpec::ScaledIpu(8);
  chip.core_memory_bytes = 768;
  chip.shift_buffer_bytes = 64;
  return chip;
}

Graph RotatingModel() {
  Graph g("serve-rotating-mlp");
  g.Add(MatMulOp("fc1", 14, 14, 14, DataType::kF32, "x", "w1", "h1"));
  g.Add(ElementwiseOp("relu", {14, 14}, DataType::kF32, "h1", "h2"));
  g.Add(MatMulOp("fc2", 14, 14, 14, DataType::kF32, "h2", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  return g;
}

struct ScenarioResult {
  std::int64_t accepted = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;  // Circuit breaker during failover.
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  int failovers = 0;
  std::int64_t retries = 0;  // Checksummed link retransmissions.
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
};

ScenarioResult RunScenario(const Graph& graph, const fault::FaultSpec& faults, double qps,
                           int requests, int kill_core_at,
                           obs::Tracer* tracer = nullptr) {
  const ChipSpec chip = CrampedChip();
  obs::Counter& link_retries = obs::MetricsRegistry::Global().GetCounter("sim.fault.retries");
  const std::int64_t retries_before = link_retries.value();
  serve::ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;  // Small on purpose: lets the sweep show shedding.
  options.faults = faults;
  options.health_poll_seconds = 0.002;
  options.tracer = tracer;
  serve::Server server(chip, graph, options);
  Status started = server.Start();
  T10_CHECK(started.ok()) << started.ToString();

  ScenarioResult result;
  const auto t0 = serve::Clock::now();
  for (int i = 0; i < requests; ++i) {
    if (qps > 0.0) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<serve::Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) / qps)));
    }
    if (kill_core_at > 0 && i == kill_core_at) {
      server.KillCore(chip.num_cores - 1);
    }
    serve::Request request;
    request.op_slot = i % server.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = server.Submit(request);
    if (id.ok()) {
      ++result.accepted;
    } else if (id.status().code() == StatusCode::kResourceExhausted) {
      ++result.shed;
    } else {
      ++result.rejected;
    }
  }
  server.WaitIdle();
  // Quantiles through the shared reservoir histogram rather than an ad-hoc
  // sort: the same estimator the serve summary table and metrics snapshots
  // report, so bench numbers and production numbers agree by construction.
  obs::Histogram latencies;
  for (const serve::Response& response : server.TakeResponses()) {
    latencies.Record(response.latency_seconds);
    if (response.status.ok()) {
      ++result.ok;
    } else {
      ++result.failed;
    }
  }
  result.failovers = server.stats().failovers;
  Status shutdown = server.Shutdown();
  T10_CHECK(shutdown.ok()) << shutdown.ToString();
  result.retries = link_retries.value() - retries_before;

  result.p50_seconds = latencies.Quantile(0.50);
  result.p99_seconds = latencies.Quantile(0.99);
  return result;
}

// Pacing: a worker is occupied pace * simulated seconds per request. The
// demo ops simulate a few microseconds, so this scale puts the paced service
// time well above the host-CPU execute cost and the sweep measures router
// scaling, not host contention.
constexpr double kPaceScale = 12000.0;

struct ShardedResult {
  int shards = 0;
  std::int64_t accepted = 0;
  std::int64_t responses = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t lost = 0;
  std::int64_t redirects = 0;
  int shard_downs = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  // Chip-kill runs only: p99 of OK responses admitted before vs after the
  // kill (the "surviving traffic").
  double pre_kill_p99_seconds = 0.0;
  double post_kill_p99_seconds = 0.0;
};

ShardedResult RunSharded(const Graph& graph, int shards, int requests, int kill_chip_at) {
  const ChipSpec chip = ChipSpec::ScaledIpu(8);
  serve::RouterOptions options;
  options.num_shards = shards;
  options.shard.num_workers = 1;  // One paced worker per chip: scaling comes
                                  // from shard count alone.
  options.shard.queue_capacity = requests;  // No shedding in the sweep.
  options.shard.pace_time_scale = kPaceScale;
  serve::Router router(chip, graph, options);
  Status started = router.Start();
  T10_CHECK(started.ok()) << started.ToString();

  ShardedResult result;
  result.shards = shards;
  // Router client ids are sequential in submission order, so the id doubles
  // as the submission index when splitting pre/post-kill traffic below.
  std::int64_t kill_boundary_id = -1;
  const auto t0 = serve::Clock::now();
  for (int i = 0; i < requests; ++i) {
    if (kill_chip_at > 0 && i == kill_chip_at) {
      router.KillChip(0);
    }
    serve::Request request;
    request.op_slot = i % router.num_op_slots();
    request.input_seed = static_cast<std::uint64_t>(i);
    StatusOr<std::int64_t> id = router.Submit(request);
    if (id.ok()) {
      ++result.accepted;
      if (kill_chip_at > 0 && i >= kill_chip_at && kill_boundary_id < 0) {
        kill_boundary_id = *id;
      }
    }
  }
  router.WaitIdle();
  result.wall_seconds = std::chrono::duration<double>(serve::Clock::now() - t0).count();

  obs::Histogram latencies;
  obs::Histogram pre_kill;
  obs::Histogram post_kill;
  std::int64_t seen = 0;
  for (const serve::Response& response : router.TakeResponses()) {
    ++seen;
    latencies.Record(response.latency_seconds);
    if (response.status.ok()) {
      ++result.ok;
      if (kill_boundary_id >= 0) {
        (response.id < kill_boundary_id ? pre_kill : post_kill)
            .Record(response.latency_seconds);
      }
    } else {
      ++result.failed;
    }
  }
  result.responses = seen;
  result.lost = result.accepted - seen;
  const serve::RouterStats stats = router.stats();
  result.redirects = stats.redirects;
  result.shard_downs = stats.shard_downs;
  Status shutdown = router.Shutdown();
  T10_CHECK(shutdown.ok()) << shutdown.ToString();

  result.throughput_rps =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.responses) / result.wall_seconds
          : 0.0;
  result.p50_seconds = latencies.Quantile(0.50);
  result.p99_seconds = latencies.Quantile(0.99);
  result.pre_kill_p99_seconds = pre_kill.Quantile(0.99);
  result.post_kill_p99_seconds = post_kill.Quantile(0.99);
  return result;
}

}  // namespace
}  // namespace t10

int main() {
  using namespace t10;
  bench::Header("serving latency",
                "p50/p99 response latency and shed rate vs offered load, under "
                "fault-free, transient-corruption, and chaos-core-kill serving");

  const Graph rotating = RotatingModel();
  const int requests = bench::QuickMode() ? 16 : 64;
  const std::vector<double> qps_sweep =
      bench::QuickMode() ? std::vector<double>{400.0, 0.0}
                         : std::vector<double>{200.0, 400.0, 800.0, 0.0};

  struct Scenario {
    std::string name;
    fault::FaultSpec faults;
    int kill_core_at;  // 0 = never.
  };
  std::vector<Scenario> scenarios;
  scenarios.push_back({"fault-free", {}, 0});
  fault::FaultSpec corrupt;
  corrupt.corrupt_rate = 0.01;
  corrupt.seed = 7;
  scenarios.push_back({"corrupt=1%", corrupt, 0});
  scenarios.push_back({"core-kill", {}, requests / 3});

  Table table({"scenario", "qps", "accepted", "shed", "rejected", "ok", "failed", "failovers",
               "retries", "p50", "p99"});
  for (const Scenario& scenario : scenarios) {
    for (double qps : qps_sweep) {
      const ScenarioResult r =
          RunScenario(rotating, scenario.faults, qps, requests, scenario.kill_core_at);
      table.AddRow({scenario.name, qps > 0.0 ? FormatDouble(qps, 0) : "max",
                    std::to_string(r.accepted), std::to_string(r.shed),
                    std::to_string(r.rejected), std::to_string(r.ok), std::to_string(r.failed),
                    std::to_string(r.failovers), std::to_string(r.retries),
                    bench::Ms(r.p50_seconds), bench::Ms(r.p99_seconds)});
    }
  }
  table.Print();

  // Tracing-overhead guard: the same fault-free max-rate run with request
  // spans on vs off. Logged for trend-watching, not gating — the span layer
  // budget is "lost in the noise of a millisecond-scale execute".
  {
    const ScenarioResult off = RunScenario(rotating, {}, /*qps=*/0.0, requests, 0);
    obs::Tracer tracer;
    const ScenarioResult on = RunScenario(rotating, {}, /*qps=*/0.0, requests, 0, &tracer);
    std::printf("\ntracing overhead (fault-free, max rate): p50 %s off vs %s on (%lld spans)\n",
                bench::Ms(off.p50_seconds).c_str(), bench::Ms(on.p50_seconds).c_str(),
                static_cast<long long>(tracer.num_finished()));
  }

  bench::Note(
      "Shedding appears once the offered load outruns the 2-worker pool and the "
      "8-deep admission queue (the 'max' rows); the corruption scenario pays the "
      "checksummed-retry overhead (the retries column) in p99, and the core-kill "
      "scenario adds one replan pause (circuit-breaker rejections) before resuming on "
      "the degraded plan.");

  // ----------------------------------------------------------------
  // Sharded multi-chip tier: saturated-throughput scaling sweep plus a
  // mid-run chip kill on the widest configuration.
  // ----------------------------------------------------------------
  bench::Header("sharded serving scaling",
                "saturated throughput vs shard count (paced workers), and "
                "surviving-traffic p99 under a mid-run chip kill");
  const Graph graph = ServedModel();
  const int shard_requests = bench::QuickMode() ? 24 : 64;
  const std::vector<int> shard_sweep{1, 2, 4};

  std::vector<ShardedResult> sweep;
  Table shard_table(
      {"shards", "accepted", "ok", "failed", "lost", "throughput", "speedup", "p50", "p99"});
  for (const int shards : shard_sweep) {
    const ShardedResult r = RunSharded(graph, shards, shard_requests, /*kill_chip_at=*/0);
    sweep.push_back(r);
    const double speedup =
        sweep.front().throughput_rps > 0.0 ? r.throughput_rps / sweep.front().throughput_rps
                                           : 0.0;
    shard_table.AddRow({std::to_string(r.shards), std::to_string(r.accepted),
                        std::to_string(r.ok), std::to_string(r.failed),
                        std::to_string(r.lost),
                        FormatDouble(r.throughput_rps, 1) + " rps",
                        FormatDouble(speedup, 2) + "x", bench::Ms(r.p50_seconds),
                        bench::Ms(r.p99_seconds)});
  }
  shard_table.Print();

  const ShardedResult kill =
      RunSharded(graph, /*shards=*/4, shard_requests, /*kill_chip_at=*/shard_requests / 3);
  const double p99_ratio = kill.pre_kill_p99_seconds > 0.0
                               ? kill.post_kill_p99_seconds / kill.pre_kill_p99_seconds
                               : 0.0;
  std::printf("\nchip kill (4 shards, kill at request %d): lost=%lld shard_downs=%d "
              "redirects=%lld | pre-kill p99 %s, surviving p99 %s (%.2fx)\n",
              shard_requests / 3, static_cast<long long>(kill.lost), kill.shard_downs,
              static_cast<long long>(kill.redirects),
              bench::Ms(kill.pre_kill_p99_seconds).c_str(),
              bench::Ms(kill.post_kill_p99_seconds).c_str(), p99_ratio);

  // JSON baseline for scaling-regression tracking (BENCH_serve_scaling.json).
  std::vector<bench::JsonObject> scaling;
  for (const ShardedResult& r : sweep) {
    scaling.push_back(bench::JsonObject()
                          .Add("shards", r.shards)
                          .Add("throughput_rps", r.throughput_rps, 2)
                          .Add("p50_ms", r.p50_seconds * 1e3, 3)
                          .Add("p99_ms", r.p99_seconds * 1e3, 3)
                          .Add("lost", r.lost));
  }
  const double speedup_4x = sweep.front().throughput_rps > 0.0
                                ? sweep.back().throughput_rps / sweep.front().throughput_rps
                                : 0.0;
  bench::WriteJsonBaseline(
      bench::JsonObject()
          .Add("bench", "serve_scaling")
          .Add("requests", shard_requests)
          .Add("pace_time_scale", kPaceScale, 0)
          .Add("scaling", scaling)
          .Add("speedup_4_shards", speedup_4x, 2)
          .Add("chip_kill", bench::JsonObject()
                                .Add("shards", 4)
                                .Add("kill_at", shard_requests / 3)
                                .Add("lost", kill.lost)
                                .Add("shard_downs", kill.shard_downs)
                                .Add("redirects", kill.redirects)
                                .Add("pre_kill_p99_ms", kill.pre_kill_p99_seconds * 1e3, 3)
                                .Add("surviving_p99_ms", kill.post_kill_p99_seconds * 1e3, 3)
                                .Add("p99_ratio", p99_ratio, 2)));

  bench::Note(
      "Shard throughput scales with chip count because every shard's single paced "
      "worker is the bottleneck by construction; the chip-kill row shows the failover "
      "cost as redirects plus a bounded surviving-traffic p99 inflation, with no lost "
      "responses.");
  return 0;
}
