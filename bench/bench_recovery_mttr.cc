// Elastic-recovery MTTR bench: how long a pipeline-mode Router takes to
// answer its first post-kill request OK after losing a stage chip with
// recover_on_chip_loss set (drain -> repartition -> verify gate -> hot
// swap). The end-to-end episode runs twice against one plan-cache
// directory (the first recovery populates it, the second recompiles
// cache-hit), and the recovery-critical repartition + recompile is then
// timed in isolation on a larger model — uncached vs warm — where the
// plan cache's skip-the-search effect is the whole signal. Set
// T10_BENCH_JSON=<path> to write the results as a JSON baseline
// (BENCH_recovery.json tracks it in-repo).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "src/core/sharded_compiler.h"
#include "src/hardware/cluster_spec.h"
#include "src/ir/builder.h"
#include "src/serve/router.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

// Demo-size: small enough that the end-to-end MTTR episode stays sub-second
// (every probe executes the real operators on the simulated machine).
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

// Larger model for the isolated recompile timing: distinct dims per layer so
// every operator is its own plan-search problem (one cache entry each).
Graph BigModel() {
  Graph g("recover-wide");
  const std::vector<int> dims{128, 160, 192, 224, 192, 160, 128};
  std::string prev = "x";
  for (int layer = 0; layer + 1 < static_cast<int>(dims.size()); ++layer) {
    const std::string w = NumberedName("w", layer);
    const std::string h = NumberedName("h", layer);
    g.Add(MatMulOp(NumberedName("fc", layer), 64, dims[static_cast<std::size_t>(layer)],
                   dims[static_cast<std::size_t>(layer) + 1], DataType::kF32, prev, w, h));
    g.MarkWeight(w);
    prev = h;
  }
  return g;
}

double SecondsSince(serve::Clock::time_point t0) {
  return std::chrono::duration<double>(serve::Clock::now() - t0).count();
}

struct MttrResult {
  double mttr_seconds = -1.0;  // Kill -> first OK response submitted after it.
  double start_seconds = 0.0;  // Router construction + Start (the initial compile).
  std::int64_t accepted = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  int recoveries = 0;
  int recovery_failures = 0;
  int cluster_epoch = 0;
  int stages_after = 0;
};

// One recovery episode: start a 3-chip pipeline, keep 8 chains in flight,
// kill the middle chip, then probe with fresh requests until one submitted
// AFTER the kill completes OK. Probes park behind the drain barrier while
// the recovery runs, so the first OK probe marks the hot swap going live.
MttrResult RunRecovery(const Graph& graph, const std::string& cache_dir) {
  serve::RouterOptions options;
  options.shard.num_workers = 2;
  options.shard.health_poll_seconds = 0.002;
  options.shard.retry_backoff_base_seconds = 0.0;
  options.shard.compile.plan_cache_dir = cache_dir;
  options.poll_seconds = 0.002;
  options.recover_on_chip_loss = true;

  MttrResult result;
  const auto t_start = serve::Clock::now();
  serve::Router router(ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(8), 3), graph, options);
  Status started = router.Start();
  T10_CHECK(started.ok()) << started.ToString();
  result.start_seconds = SecondsSince(t_start);

  std::uint64_t seed = 0;
  auto submit = [&]() -> std::int64_t {
    serve::Request request;
    request.op_slot = 0;
    request.input_seed = seed++;
    request.max_retries = 4;
    StatusOr<std::int64_t> id = router.Submit(request);
    if (id.ok()) {
      ++result.accepted;
      return *id;
    }
    return -1;
  };
  for (int i = 0; i < 8; ++i) {
    submit();
  }

  router.KillChip(1);
  const auto t_kill = serve::Clock::now();
  std::set<std::int64_t> probes;
  std::vector<serve::Response> responses;
  while (result.mttr_seconds < 0.0 && SecondsSince(t_kill) < 30.0) {
    if (const std::int64_t id = submit(); id >= 0) {
      probes.insert(id);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (serve::Response& response : router.TakeResponses()) {
      if (result.mttr_seconds < 0.0 && response.status.ok() && probes.count(response.id)) {
        result.mttr_seconds = SecondsSince(t_kill);
      }
      responses.push_back(std::move(response));
    }
  }
  router.WaitIdle();
  for (serve::Response& response : router.TakeResponses()) {
    responses.push_back(std::move(response));
  }
  for (const serve::Response& response : responses) {
    (response.status.ok() ? result.ok : result.failed)++;
  }

  const serve::RouterStats stats = router.stats();
  result.recoveries = stats.recoveries;
  result.recovery_failures = stats.recovery_failures;
  result.cluster_epoch = stats.cluster_epoch;
  result.stages_after = router.num_shards();
  Status shutdown = router.Shutdown();
  T10_CHECK(shutdown.ok()) << shutdown.ToString();
  return result;
}

// The recovery-critical recompile in isolation: the router's recovery path,
// RepartitionDegraded then RecompileDegraded, on the larger model, once with
// no plan cache attached (every changed stage re-searches its operators from
// scratch) and once against a cache the baseline compile populated (the
// search is skipped entirely — same contract the plan-cache CI job pins for
// t10c). RecompileDegraded moves the stages it keeps out of `previous`, so
// each scenario compiles its own baseline first.
struct RecompileTiming {
  double uncached_seconds = 0.0;
  double warm_seconds = 0.0;
  std::int64_t uncached_searches = 0;
  std::int64_t warm_searches = 0;
};

RecompileTiming TimeRecompile(const Graph& graph, const std::string& cache_dir) {
  const ClusterSpec cluster = ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(8), 3);
  const std::vector<bool> chip_down{false, true, false};
  obs::Counter& searches =
      obs::MetricsRegistry::Global().GetCounter("compiler.search.searches");

  RecompileTiming timing;
  for (const bool warm : {false, true}) {
    CompileOptions options;
    if (warm) {
      std::filesystem::remove_all(cache_dir);
      std::filesystem::create_directories(cache_dir);
      options.plan_cache_dir = cache_dir;
    }
    ShardedCompiler compiler(cluster, options);
    ShardedCompiledModel previous = compiler.Compile(graph);
    T10_CHECK(previous.fits) << previous.unfit_reason;
    const std::int64_t searches_before = searches.value();
    const auto t0 = serve::Clock::now();
    ShardedCompiledModel degraded = compiler.RecompileDegraded(
        graph, previous, RepartitionDegraded(graph, cluster, chip_down));
    const double seconds = SecondsSince(t0);
    T10_CHECK(degraded.fits) << degraded.unfit_reason;
    (warm ? timing.warm_seconds : timing.uncached_seconds) = seconds;
    (warm ? timing.warm_searches : timing.uncached_searches) =
        searches.value() - searches_before;
  }
  return timing;
}

}  // namespace
}  // namespace t10

int main() {
  using namespace t10;
  bench::Header("recovery MTTR",
                "time from a mid-traffic stage chip kill to the first OK response "
                "submitted after it, plus the recovery recompile cost cold vs "
                "warm-started from the plan cache");

  const Graph graph = PipelineModel();
  const std::string cache_dir = "recovery-plan-cache";
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  // End-to-end episodes: the first run's recovery populates the cache, so
  // the second run's repartitioned stages recompile warm. MTTR also carries
  // detection (the stage server parking kFailed) and the drain barrier, so
  // the isolated recompile timing below is the clean cache signal.
  const MttrResult cold = RunRecovery(graph, cache_dir);
  const MttrResult warm = RunRecovery(graph, cache_dir);

  Table table({"cache", "start", "MTTR", "accepted", "ok", "failed", "recoveries",
               "epoch", "stages after"});
  for (const auto& [name, r] : {std::pair<const char*, const MttrResult&>{"cold", cold},
                                {"warm", warm}}) {
    table.AddRow({name, bench::Ms(r.start_seconds),
                  r.mttr_seconds >= 0.0 ? bench::Ms(r.mttr_seconds) : "TIMEOUT",
                  std::to_string(r.accepted), std::to_string(r.ok),
                  std::to_string(r.failed), std::to_string(r.recoveries),
                  std::to_string(r.cluster_epoch), std::to_string(r.stages_after)});
  }
  table.Print();

  const Graph big = BigModel();
  const RecompileTiming recompile = TimeRecompile(big, cache_dir);
  const double recompile_speedup =
      recompile.warm_seconds > 0.0 ? recompile.uncached_seconds / recompile.warm_seconds
                                   : 0.0;
  std::printf("\nrecovery recompile (6-layer model, chip 1 of 3 down): uncached %s "
              "(%lld searches), warm cache %s (%lld searches) — %sx\n",
              bench::Ms(recompile.uncached_seconds).c_str(),
              static_cast<long long>(recompile.uncached_searches),
              bench::Ms(recompile.warm_seconds).c_str(),
              static_cast<long long>(recompile.warm_searches),
              FormatDouble(recompile_speedup, 2).c_str());

  // JSON baseline for regression tracking (BENCH_recovery.json).
  auto episode = [](const MttrResult& r) {
    return bench::JsonObject()
        .Add("mttr_ms", r.mttr_seconds * 1e3, 3)
        .Add("start_ms", r.start_seconds * 1e3, 3)
        .Add("recoveries", r.recoveries)
        .Add("recovery_failures", r.recovery_failures)
        .Add("stages_after", r.stages_after);
  };
  bench::WriteJsonBaseline(
      bench::JsonObject()
          .Add("bench", "recovery_mttr")
          .Add("chips", 3)
          .Add("killed_chip", 1)
          .Add("cold", episode(cold))
          .Add("warm", episode(warm))
          .Add("recompile", bench::JsonObject()
                                .Add("uncached_ms", recompile.uncached_seconds * 1e3, 3)
                                .Add("uncached_searches", recompile.uncached_searches)
                                .Add("warm_ms", recompile.warm_seconds * 1e3, 3)
                                .Add("warm_searches", recompile.warm_searches)
                                .Add("warm_speedup", recompile_speedup, 2)));

  bench::Note(
      "End-to-end MTTR is dominated by failure detection and the drain barrier for "
      "demo-size stages; the isolated recompile row shows what the plan cache takes "
      "off the recovery's critical path as models grow — the warm recompile runs "
      "zero plan searches (the same skip-the-search contract the plan-cache CI job "
      "pins for t10c). Every episode recovers to a 2-stage chain with zero failed "
      "recoveries.");
  return 0;
}
