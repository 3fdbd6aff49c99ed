// t10-serve: a closed-loop serving demo over the simulated chip. Compiles
// the built-in demo MLP, starts the resilient serving runtime (bounded
// admission queue, deadline-aware scheduling, per-worker fault-tolerant
// executors, health-monitored online failover), drives a fixed request load
// against it — optionally under injected faults and a mid-run chaos core
// kill — and audits the outcome: every accepted request must produce exactly
// one response, and every OK response must be bit-identical to a fault-free
// reference run.
//
// With --shards N (N >= 1) the same load is driven through the sharded
// multi-chip tier instead: a serve::Router owning N per-chip server shards
// with chip-level failover, hedged retries, and brownout admission. The
// chaos repertoire gains --chaos-kill-chip-at, which kills one shard's
// entire chip mid-run; the router must fail the shard over (redirecting its
// requests to survivors) while the audit still balances.
//
// With --shard-mode pipeline the N chips form a ClusterSpec instead of N
// replicas: the (deeper) pipeline demo model is partitioned into stages,
// each stage served by its own chip, and every request flows through the
// whole stage chain (handoffs carry the remaining deadline budget; the
// final bit-identity is the AND over every per-op audit on the chain).
// Killing a core on one stage replans exactly that stage; killing a stage's
// chip fails the chains that cross it — still exactly one response each.
//
// With --recover-on-chip-loss (pipeline mode only) a stage chip loss
// triggers elastic pipeline recovery instead: the router drains in-flight
// chains, repartitions the model over the surviving chips, verifier-gates
// the new cut and hot-swaps the stage chain under a new cluster epoch —
// parked chains resume at their exact operator with their remaining
// deadline budget, and the bit-identity audit must still balance. An
// infeasible repartition browns out (new admissions refused, in-flight
// answered) rather than crashing.
//
//   $ ./examples/t10_serve [--requests N] [--qps Q] [--deadline-ms D]
//                          [--queue-cap C] [--workers W] [--cores N]
//                          [--faults SPEC] [--chaos-kill-core-at K]
//                          [--chaos-core ID] [--retries R] [--seed S]
//                          [--shards N] [--shard-mode replicated|pipeline]
//                          [--chaos-kill-chip-at K]
//                          [--chaos-chip ID] [--pace-scale X]
//                          [--metrics out.json] [--trace out.json]
//                          [--flight-recorder out.json]
//                          [--plan-timings out.json]
//
// Exit codes: 0 success; 1 server failed to start or died; 2 usage error;
// 5 serving integrity failure (lost or duplicated responses, or an OK
// response that was not bit-identical to the reference); 7 shard loss (the
// sharded run ended with one or more shards — or pipeline stages —
// permanently down, including a total outage, but the audit balanced, and
// either recovery was disabled or no feasible repartition existed; a chip
// loss fully absorbed by elastic recovery exits 0).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/ir/parser.h"
#include "src/obs/journal.h"
#include "src/obs/metrics.h"
#include "src/obs/plan_timings.h"
#include "src/obs/span.h"
#include "src/serve/router.h"
#include "src/serve/server.h"
#include "src/sim/trace.h"
#include "src/util/table.h"

namespace {

// A scaled-down cousin of the t10c demo MLP: every request is executed
// byte-for-byte on the simulated scratchpads (plus once more on a pristine
// reference machine), so serving wants millisecond ops, not the compile
// demo's megabyte matmuls.
const char* kDemoModel = R"(
model serve-mlp
matmul name=fc1 m=16 k=32 n=32 a=x b=w1 c=h1 dtype=f32 weight=w1
unary  name=relu shape=16x32 in=h1 out=h2 cost=2 dtype=f32
matmul name=fc2 m=16 k=32 n=16 a=h2 b=w2 c=y dtype=f32 weight=w2
)";

// Pipeline-mode demo: one extra layer so a 4-chip cluster gets one operator
// per stage and every handoff carries a real boundary tensor.
const char* kPipelineModel = R"(
model serve-pipe-mlp
matmul name=fc1 m=16 k=32 n=32 a=x b=w1 c=h1 dtype=f32 weight=w1
unary  name=relu shape=16x32 in=h1 out=h2 cost=2 dtype=f32
matmul name=fc2 m=16 k=32 n=32 a=h2 b=w2 c=h3 dtype=f32 weight=w2
matmul name=fc3 m=16 k=32 n=16 a=h3 b=w3 c=y dtype=f32 weight=w3
)";

void Usage() {
  std::printf(
      "usage: t10_serve [options]\n"
      "\n"
      "options:\n"
      "  --requests N            requests to submit (default 32)\n"
      "  --qps Q                 submission rate; 0 = as fast as possible (default 0)\n"
      "  --deadline-ms D         per-request deadline; 0 = none (default 0)\n"
      "  --queue-cap C           admission queue capacity (default 64)\n"
      "  --workers W             executor worker threads (default 2)\n"
      "  --cores N               simulated chip cores (default 16)\n"
      "  --faults SPEC           fault environment, t10c --faults syntax (e.g.\n"
      "                          corrupt=0.01,seed=7,core_down=3)\n"
      "  --chaos-kill-core-at K  after the K-th submission (1-based), persistently\n"
      "                          kill a core under the running server, forcing an\n"
      "                          online failover onto the surviving topology\n"
      "  --chaos-core ID         which core the chaos kill takes (default: last)\n"
      "  --retries R             per-request transient-fault retry budget (default 2)\n"
      "  --seed S                base input seed (default 1)\n"
      "  --shards N              serve through the sharded multi-chip router with N\n"
      "                          per-chip server shards (0 = single server, default)\n"
      "  --shard-mode M          what the N chips hold (requires --shards): 'replicated'\n"
      "                          (default; N whole-model replicas) or 'pipeline' (a\n"
      "                          ClusterSpec of N chips serving the partitioned model\n"
      "                          as a stage chain; requests flow through every stage)\n"
      "  --chaos-kill-chip-at K  after the K-th submission (1-based), kill one shard's\n"
      "                          entire chip; the router must fail the shard over\n"
      "                          (requires --shards >= 1)\n"
      "  --chaos-chip ID         which shard the chip kill takes (default 0)\n"
      "  --recover-on-chip-loss  elastic pipeline recovery (requires --shard-mode\n"
      "                          pipeline): on chip loss, drain in-flight chains,\n"
      "                          repartition over the surviving chips, verify the new\n"
      "                          cut and hot-swap the stage chain under a new cluster\n"
      "                          epoch; an infeasible repartition browns out instead\n"
      "  --pace-scale X          simulated-time pacing: a successful request occupies\n"
      "                          its worker for X * the op's cost-model seconds\n"
      "                          (0 = off, default)\n"
      "  --metrics out.json      write a JSON metrics snapshot on exit\n"
      "  --trace out.json        trace every request (admission, queue wait, execute\n"
      "                          attempts, audit, response, executor step groups) and\n"
      "                          write a Perfetto timeline (open in ui.perfetto.dev)\n"
      "  --flight-recorder out.json\n"
      "                          keep a bounded in-memory event journal and dump a\n"
      "                          post-mortem JSON (recent events + open spans) on\n"
      "                          every failover, replan failure, or non-OK response\n"
      "  --plan-timings out.json write per-plan-signature observed execution seconds\n"
      "                          (feed for offline cost-model refitting)\n"
      "  --help                  show this message\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace t10;

  int requests = 32;
  double qps = 0.0;
  double deadline_ms = 0.0;
  int queue_cap = 64;
  int workers = 2;
  int cores = 16;
  int retries = 2;
  std::uint64_t seed = 1;
  int chaos_at = 0;  // 0 = never.
  int chaos_core = -1;
  int shards = 0;  // 0 = legacy single-server path.
  bool pipeline = false;  // --shard-mode pipeline.
  int chip_kill_at = 0;  // 0 = never.
  int chaos_chip = 0;
  bool recover_on_chip_loss = false;
  double pace_scale = 0.0;
  std::string faults_text;
  std::string metrics_path;
  std::string trace_path;
  std::string flight_recorder_path;
  std::string plan_timings_path;

  auto flag_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "t10_serve: %s requires a value\n\n", flag);
      Usage();
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      Usage();
      return 0;
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      requests = std::atoi(flag_value(i, "--requests"));
    } else if (std::strcmp(argv[i], "--qps") == 0) {
      qps = std::atof(flag_value(i, "--qps"));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      deadline_ms = std::atof(flag_value(i, "--deadline-ms"));
    } else if (std::strcmp(argv[i], "--queue-cap") == 0) {
      queue_cap = std::atoi(flag_value(i, "--queue-cap"));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = std::atoi(flag_value(i, "--workers"));
    } else if (std::strcmp(argv[i], "--cores") == 0) {
      cores = std::atoi(flag_value(i, "--cores"));
    } else if (std::strcmp(argv[i], "--retries") == 0) {
      retries = std::atoi(flag_value(i, "--retries"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = std::strtoull(flag_value(i, "--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--chaos-kill-core-at") == 0) {
      chaos_at = std::atoi(flag_value(i, "--chaos-kill-core-at"));
    } else if (std::strcmp(argv[i], "--chaos-core") == 0) {
      chaos_core = std::atoi(flag_value(i, "--chaos-core"));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = std::atoi(flag_value(i, "--shards"));
    } else if (std::strcmp(argv[i], "--shard-mode") == 0) {
      const char* text = flag_value(i, "--shard-mode");
      if (std::strcmp(text, "replicated") == 0) {
        pipeline = false;
      } else if (std::strcmp(text, "pipeline") == 0) {
        pipeline = true;
      } else {
        std::fprintf(stderr,
                     "t10_serve: --shard-mode expects 'replicated' or 'pipeline', got '%s'\n",
                     text);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--chaos-kill-chip-at") == 0) {
      chip_kill_at = std::atoi(flag_value(i, "--chaos-kill-chip-at"));
    } else if (std::strcmp(argv[i], "--chaos-chip") == 0) {
      chaos_chip = std::atoi(flag_value(i, "--chaos-chip"));
    } else if (std::strcmp(argv[i], "--recover-on-chip-loss") == 0) {
      recover_on_chip_loss = true;
    } else if (std::strcmp(argv[i], "--pace-scale") == 0) {
      pace_scale = std::atof(flag_value(i, "--pace-scale"));
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults_text = flag_value(i, "--faults");
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      faults_text = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = flag_value(i, "--metrics");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace_path = flag_value(i, "--trace");
    } else if (std::strcmp(argv[i], "--flight-recorder") == 0) {
      flight_recorder_path = flag_value(i, "--flight-recorder");
    } else if (std::strcmp(argv[i], "--plan-timings") == 0) {
      plan_timings_path = flag_value(i, "--plan-timings");
    } else {
      std::fprintf(stderr, "t10_serve: unknown argument '%s'\n\n", argv[i]);
      Usage();
      return 2;
    }
  }
  if (requests < 1 || queue_cap < 1 || workers < 1 || cores < 2 || retries < 0 ||
      qps < 0.0 || deadline_ms < 0.0 || shards < 0 || chip_kill_at < 0 ||
      pace_scale < 0.0) {
    std::fprintf(stderr, "t10_serve: invalid argument value\n");
    return 2;
  }
  if (shards == 0 && (chip_kill_at > 0 || chaos_chip != 0)) {
    std::fprintf(stderr, "t10_serve: --chaos-kill-chip-at/--chaos-chip require --shards\n");
    return 2;
  }
  if (pipeline && shards == 0) {
    std::fprintf(stderr, "t10_serve: --shard-mode pipeline requires --shards >= 1\n");
    return 2;
  }
  if (recover_on_chip_loss && !pipeline) {
    std::fprintf(stderr, "t10_serve: --recover-on-chip-loss requires --shard-mode pipeline\n");
    return 2;
  }
  if (shards > 0 && (chaos_chip < 0 || chaos_chip >= shards)) {
    std::fprintf(stderr, "t10_serve: --chaos-chip %d out of range [0, %d)\n", chaos_chip,
                 shards);
    return 2;
  }

  // Fail fast on unwritable output paths before compiling anything.
  for (const std::string& out :
       {metrics_path, trace_path, flight_recorder_path, plan_timings_path}) {
    if (out.empty()) continue;
    std::ofstream probe(out, std::ios::app);
    if (!probe.good()) {
      std::fprintf(stderr, "t10_serve: cannot open output file '%s' for writing\n",
                   out.c_str());
      return 2;
    }
  }

  // Observability sinks live on the stack above the server so the pointers
  // the ServerOptions carry outlive it.
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<obs::EventJournal> journal;
  std::unique_ptr<obs::PlanTimings> plan_timings;
  if (!trace_path.empty()) {
    tracer = std::make_unique<obs::Tracer>();
  }
  if (!trace_path.empty() || !flight_recorder_path.empty()) {
    // The sharded run ends with a full-story post-mortem dump, so its ring
    // must be deep enough that early events (router.shard_down fires near the
    // start of a chaos run) survive until the end.
    journal = std::make_unique<obs::EventJournal>(
        shards > 0 ? 8192 : obs::EventJournal::kDefaultCapacity);
  }
  if (!plan_timings_path.empty()) {
    plan_timings = std::make_unique<obs::PlanTimings>();
  }

  serve::ServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = queue_cap;
  options.tracer = tracer.get();
  options.journal = journal.get();
  options.plan_timings = plan_timings.get();
  options.flight_recorder_path = flight_recorder_path;
  options.pace_time_scale = pace_scale;
  if (!faults_text.empty()) {
    StatusOr<fault::FaultSpec> spec = fault::ParseFaultSpec(faults_text);
    if (!spec.ok()) {
      std::fprintf(stderr, "t10_serve: --faults: %s\n", spec.status().ToString().c_str());
      return 2;
    }
    options.faults = *std::move(spec);
  }

  StatusOr<Graph> parsed = TryParseModelText(pipeline ? kPipelineModel : kDemoModel);
  if (!parsed.ok()) {
    std::fprintf(stderr, "t10_serve: demo model: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const Graph graph = *std::move(parsed);
  const ChipSpec chip = ChipSpec::ScaledIpu(cores);
  if (chaos_core < 0) {
    chaos_core = chip.num_cores - 1;
  }

  // ------------------------------------------------------------------
  // Sharded multi-chip path: the same load through a serve::Router owning
  // `shards` per-chip server shards. Kept as its own block (mirroring the
  // single-server flow below) so the legacy path stays byte-identical.
  // ------------------------------------------------------------------
  if (shards > 0) {
    serve::RouterOptions ropts;
    ropts.num_shards = shards;
    ropts.shard = options;
    // The router owns every flight-recorder dump (shard death, total outage,
    // and the run-complete dump below); shards share the journal but must
    // not race it on the same file.
    ropts.shard.flight_recorder_path.clear();
    ropts.tracer = tracer.get();
    ropts.journal = journal.get();
    ropts.flight_recorder_path = flight_recorder_path;
    ropts.recover_on_chip_loss = recover_on_chip_loss;

    // Pipeline mode swaps N replicas for a ClusterSpec of N chips serving
    // the partitioned model as a stage chain; everything below (load loop,
    // chaos hooks, audit) is mode-agnostic.
    std::unique_ptr<serve::Router> owned_router;
    if (pipeline) {
      const ClusterSpec cluster = ClusterSpec::Homogeneous(chip, shards);
      owned_router = std::make_unique<serve::Router>(cluster, graph, ropts);
      std::printf(
          "t10_serve: partitioning '%s' (%d ops) across %s (%d workers/stage, queue %d)...\n",
          graph.name().c_str(), graph.num_ops(), cluster.name.c_str(), workers, queue_cap);
    } else {
      owned_router = std::make_unique<serve::Router>(chip, graph, ropts);
      std::printf("t10_serve: compiling '%s' for %d x %s (%d workers/shard, queue %d)...\n",
                  graph.name().c_str(), shards, chip.name.c_str(), workers, queue_cap);
    }
    serve::Router& router = *owned_router;
    if (Status started = router.Start(); !started.ok()) {
      std::fprintf(stderr, "t10_serve: start: %s\n", started.ToString().c_str());
      return 1;
    }
    // The partition decides the stage count; re-check the chaos target now.
    const int total_shards = router.num_shards();
    if (chaos_chip >= total_shards) {
      std::fprintf(stderr, "t10_serve: --chaos-chip %d out of range [0, %d)\n", chaos_chip,
                   total_shards);
      const Status stopped = router.Shutdown();
      (void)stopped;
      return 2;
    }
    if (pipeline) {
      std::printf("t10_serve: %d pipeline stage(s) serving '%s'\n", total_shards,
                  router.op_slot_name(0).c_str());
    } else {
      std::printf("t10_serve: %d shard(s) serving %d op slot(s)\n", total_shards,
                  router.num_op_slots());
    }

    const auto t0 = serve::Clock::now();
    std::int64_t accepted = 0, shed = 0, rejected = 0;
    std::map<std::int64_t, int> expected;  // id -> responses seen (audit).
    for (int i = 0; i < requests; ++i) {
      if (qps > 0.0) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<serve::Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) / qps)));
      }
      if (chip_kill_at > 0 && i + 1 == chip_kill_at) {
        std::printf("t10_serve: chaos: killing shard %d's chip after %d submission(s)\n",
                    chaos_chip, i);
        router.KillChip(chaos_chip);
      }
      if (chaos_at > 0 && i + 1 == chaos_at) {
        std::printf("t10_serve: chaos: killing core %d on shard %d after %d submission(s)\n",
                    chaos_core, chaos_chip, i);
        router.KillCore(chaos_chip, chaos_core);
      }
      serve::Request request;
      request.op_slot = i % router.num_op_slots();
      request.input_seed = seed + static_cast<std::uint64_t>(i);
      request.deadline_seconds = deadline_ms / 1000.0;
      request.max_retries = retries;
      StatusOr<std::int64_t> id = router.Submit(request);
      if (id.ok()) {
        ++accepted;
        expected.emplace(*id, 0);
      } else if (id.status().code() == StatusCode::kResourceExhausted) {
        ++shed;  // All routable queues full and nothing sheddable: brownout.
      } else {
        ++rejected;  // No routable shard / router down.
      }
    }

    router.WaitIdle();
    if (chip_kill_at > 0 && chip_kill_at <= requests) {
      // A killed chip is lost for good, but replicated shards can redirect
      // every request before the monitor parks the dead shard. Wait (bounded)
      // for the router to record the loss, so the exit code does not depend
      // on how quickly the survivors answered.
      const auto settle_deadline = serve::Clock::now() + std::chrono::seconds(30);
      while (router.stats().shard_downs == 0 && serve::Clock::now() < settle_deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    const int routable = router.routable_shards();  // Pre-shutdown view.
    // Elastic recovery may have re-cut the pipeline into fewer stages, so the
    // start-of-run count is only history now.
    const int end_shards = router.num_shards();
    const std::vector<serve::Response> responses = router.TakeResponses();
    const Status shutdown = router.Shutdown();
    const double wall = std::chrono::duration<double>(serve::Clock::now() - t0).count();

    // Audit: exactly one response per accepted request; OK => bit-identical.
    std::int64_t lost = 0, duplicated = 0, unknown = 0, not_identical = 0;
    std::int64_t ok = 0, deadline_exceeded = 0, failed = 0;
    std::vector<double> latencies;
    for (const serve::Response& response : responses) {
      auto it = expected.find(response.id);
      if (it == expected.end()) {
        ++unknown;
        continue;
      }
      if (++it->second > 1) {
        ++duplicated;
      }
      latencies.push_back(response.latency_seconds);
      if (response.status.ok()) {
        ++ok;
        if (!response.bit_identical) {
          ++not_identical;
        }
      } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
        ++deadline_exceeded;
      } else {
        ++failed;
      }
    }
    for (const auto& [id, count] : expected) {
      if (count == 0) {
        ++lost;
      }
    }

    std::sort(latencies.begin(), latencies.end());
    auto quantile = [&](double q) {
      if (latencies.empty()) return 0.0;
      const auto rank =
          static_cast<std::size_t>(q * static_cast<double>(latencies.size() - 1));
      return latencies[rank];
    };

    const serve::RouterStats rstats = router.stats();
    std::printf("\nt10_serve: %lld accepted, %lld shed, %lld rejected in %.2fs\n",
                static_cast<long long>(accepted), static_cast<long long>(shed),
                static_cast<long long>(rejected), wall);
    std::printf("responses: %zu (ok %lld, deadline_exceeded %lld, failed %lld)\n",
                responses.size(), static_cast<long long>(ok),
                static_cast<long long>(deadline_exceeded), static_cast<long long>(failed));
    std::printf("latency: p50 %.1fms p99 %.1fms | redirects %lld, hedges %lld (wasted %lld)\n",
                quantile(0.50) * 1e3, quantile(0.99) * 1e3,
                static_cast<long long>(rstats.redirects),
                static_cast<long long>(rstats.hedges),
                static_cast<long long>(rstats.hedge_wasted));
    std::printf("shards: %d/%d routable | shard_downs=%d drains=%d rejoins=%d "
                "rebalances=%d handoffs=%lld | lost=%lld duplicated=%lld unknown=%lld "
                "not_identical=%lld\n",
                routable, end_shards, rstats.shard_downs, rstats.drains, rstats.rejoins,
                rstats.rebalances, static_cast<long long>(rstats.handoffs),
                static_cast<long long>(lost), static_cast<long long>(duplicated),
                static_cast<long long>(unknown), static_cast<long long>(not_identical));
    if (!shutdown.ok()) {
      std::fprintf(stderr, "t10_serve: router shutdown: %s\n", shutdown.ToString().c_str());
    }

    {
      std::printf("\nrun summary:\n");
      Table summary({"metric", "value"});
      summary.AddRow({"responses ok", std::to_string(ok)});
      summary.AddRow({"responses deadline_exceeded", std::to_string(deadline_exceeded)});
      summary.AddRow({"responses failed", std::to_string(failed)});
      summary.AddRow({"shed at admission", std::to_string(shed)});
      summary.AddRow({"rejected (no routable shard)", std::to_string(rejected)});
      summary.AddRow({"shard mode", pipeline ? "pipeline" : "replicated"});
      summary.AddRow({"routable shards at end",
                      std::to_string(routable) + " of " + std::to_string(end_shards)});
      if (pipeline) {
        summary.AddRow({"pipeline handoffs", std::to_string(rstats.handoffs)});
        summary.AddRow({"cluster epoch", std::to_string(rstats.cluster_epoch)});
        summary.AddRow({"cluster recoveries",
                        std::to_string(rstats.recoveries) + " (" +
                            std::to_string(rstats.recovery_failures) + " failed)"});
      }
      summary.AddRow({"redirects", std::to_string(rstats.redirects)});
      summary.AddRow({"hedges launched / wasted", std::to_string(rstats.hedges) + " / " +
                                                      std::to_string(rstats.hedge_wasted)});
      summary.AddRow({"brownout evictions", std::to_string(rstats.brownout_shed)});
      summary.AddRow({"shard downs / drains / rejoins",
                      std::to_string(rstats.shard_downs) + " / " +
                          std::to_string(rstats.drains) + " / " +
                          std::to_string(rstats.rejoins)});
      for (int s = 0; s < end_shards; ++s) {
        const serve::ShardSnapshot snap = router.shard_snapshot(s);
        summary.AddRow({(pipeline ? "stage " : "shard ") + std::to_string(s),
                        std::string(serve::ShardStateName(snap.state)) + ", epoch " +
                            std::to_string(snap.plan_epoch) + ", " +
                            std::to_string(snap.stats.responses) + " responses"});
      }
      summary.Print();
    }

    if (!metrics_path.empty()) {
      obs::MetricsRegistry::Global().WriteFile(metrics_path);
      std::printf("metrics snapshot: %s\n", metrics_path.c_str());
    }
    if (!trace_path.empty()) {
      TraceWriter writer;
      AppendTracer(*tracer, writer);
      if (const Status written = writer.WriteFile(trace_path); !written.ok()) {
        std::fprintf(stderr, "t10_serve: --trace: %s\n", written.ToString().c_str());
        return 2;
      }
      std::printf("trace: %s (open in ui.perfetto.dev)\n", trace_path.c_str());
    }
    if (!plan_timings_path.empty()) {
      if (const Status written = plan_timings->WriteFile(plan_timings_path);
          !written.ok()) {
        std::fprintf(stderr, "t10_serve: --plan-timings: %s\n", written.ToString().c_str());
        return 2;
      }
      std::printf("plan timings: %s\n", plan_timings_path.c_str());
    }
    if (!flight_recorder_path.empty()) {
      // Overwrite any mid-run dump with the complete story so post-run
      // tooling sees every event (the ring is sized above to hold them all).
      const Status dumped = obs::DumpPostMortem(flight_recorder_path, "run complete",
                                                journal.get(), tracer.get());
      if (!dumped.ok()) {
        std::fprintf(stderr, "t10_serve: --flight-recorder: %s\n",
                     dumped.ToString().c_str());
        return 2;
      }
      std::printf("flight recorder: %s\n", flight_recorder_path.c_str());
    }

    if (lost > 0 || duplicated > 0 || unknown > 0 || not_identical > 0) {
      std::fprintf(stderr, "t10_serve: SERVING INTEGRITY FAILURE\n");
      return 5;
    }
    // Exit 7 is reserved for shard loss the run could not absorb: recovery
    // disabled, never triggered, or failed (no feasible repartition). A chip
    // loss fully covered by elastic recovery — every down shard accounted for
    // by a successful repartition — is a clean run.
    const bool loss_recovered = recover_on_chip_loss && rstats.recoveries > 0 &&
                                rstats.recovery_failures == 0 &&
                                routable == end_shards;
    if (rstats.shard_downs > 0 && !loss_recovered) {
      std::fprintf(stderr,
                   "t10_serve: SHARD LOSS: %d %s permanently down, %d of %d "
                   "routable at end\n",
                   rstats.shard_downs, pipeline ? "stage(s)" : "shard(s)", routable,
                   end_shards);
      return 7;
    }
    if (rstats.recoveries > 0) {
      std::printf("t10_serve: recovered from %d chip loss(es): cluster epoch %d, "
                  "%d of %d stage(s) routable\n",
                  rstats.recoveries, rstats.cluster_epoch, routable, end_shards);
    }
    if (!shutdown.ok()) {
      return 1;
    }
    std::printf("t10_serve: OK\n");
    return 0;
  }

  serve::Server server(chip, graph, options);
  std::printf("t10_serve: compiling '%s' for %s (%d workers, queue %d)...\n",
              graph.name().c_str(), chip.name.c_str(), workers, queue_cap);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "t10_serve: start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("t10_serve: serving %d op slot(s), epoch %d\n", server.num_op_slots(),
              server.plan_epoch());

  const auto t0 = serve::Clock::now();
  std::int64_t accepted = 0, shed = 0, rejected = 0;
  std::map<std::int64_t, int> expected;  // id -> responses seen (audit).
  for (int i = 0; i < requests; ++i) {
    if (qps > 0.0) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<serve::Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) / qps)));
    }
    if (chaos_at > 0 && i + 1 == chaos_at) {
      std::printf("t10_serve: chaos: killing core %d after %d submission(s)\n", chaos_core,
                  i);
      server.KillCore(chaos_core);
    }
    serve::Request request;
    request.op_slot = i % server.num_op_slots();
    request.input_seed = seed + static_cast<std::uint64_t>(i);
    request.deadline_seconds = deadline_ms / 1000.0;
    request.max_retries = retries;
    StatusOr<std::int64_t> id = server.Submit(request);
    if (id.ok()) {
      ++accepted;
      expected.emplace(*id, 0);
    } else if (id.status().code() == StatusCode::kResourceExhausted) {
      ++shed;  // Queue full: load was shed at admission, no response owed.
    } else {
      ++rejected;  // Circuit breaker / server down.
    }
  }

  server.WaitIdle();
  const std::vector<serve::Response> responses = server.TakeResponses();
  const Status shutdown = server.Shutdown();
  const double wall = std::chrono::duration<double>(serve::Clock::now() - t0).count();

  // Audit: exactly one response per accepted request; OK => bit-identical.
  std::int64_t lost = 0, duplicated = 0, unknown = 0, not_identical = 0;
  std::int64_t ok = 0, deadline_exceeded = 0, failed = 0;
  std::vector<double> latencies;
  for (const serve::Response& response : responses) {
    auto it = expected.find(response.id);
    if (it == expected.end()) {
      ++unknown;
      continue;
    }
    if (++it->second > 1) {
      ++duplicated;
    }
    latencies.push_back(response.latency_seconds);
    if (response.status.ok()) {
      ++ok;
      if (!response.bit_identical) {
        ++not_identical;
      }
    } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++deadline_exceeded;
    } else {
      ++failed;
    }
  }
  for (const auto& [id, count] : expected) {
    if (count == 0) {
      ++lost;
    }
  }

  std::sort(latencies.begin(), latencies.end());
  auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(latencies.size() - 1));
    return latencies[rank];
  };

  const serve::ServerStats stats = server.stats();
  std::printf("\nt10_serve: %lld accepted, %lld shed, %lld rejected in %.2fs\n",
              static_cast<long long>(accepted), static_cast<long long>(shed),
              static_cast<long long>(rejected), wall);
  std::printf("responses: %zu (ok %lld, deadline_exceeded %lld, failed %lld)\n",
              responses.size(), static_cast<long long>(ok),
              static_cast<long long>(deadline_exceeded), static_cast<long long>(failed));
  std::printf("latency: p50 %.1fms p99 %.1fms | retries used %lld, requeued %lld\n",
              quantile(0.50) * 1e3, quantile(0.99) * 1e3,
              static_cast<long long>(
                  obs::MetricsRegistry::Global().GetCounter("serve.retry.count").value()),
              static_cast<long long>(stats.requeued));
  std::printf("failovers: %d (final epoch %d) | lost=%lld duplicated=%lld unknown=%lld "
              "not_identical=%lld\n",
              stats.failovers, stats.plan_epoch, static_cast<long long>(lost),
              static_cast<long long>(duplicated), static_cast<long long>(unknown),
              static_cast<long long>(not_identical));
  if (!shutdown.ok()) {
    std::fprintf(stderr, "t10_serve: server died: %s\n", shutdown.ToString().c_str());
  }

  // One-screen run summary. Queue-wait vs execute quantiles come from the
  // server's histograms, so they cover every processed request (including
  // requeued attempts), not just the delivered responses audited above.
  {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    obs::Histogram& queue_wait = registry.GetHistogram("serve.queue_wait.seconds");
    obs::Histogram& execute = registry.GetHistogram("serve.execute.seconds");
    const double shed_rate =
        accepted + shed > 0
            ? static_cast<double>(shed) / static_cast<double>(accepted + shed)
            : 0.0;
    std::printf("\nrun summary:\n");
    Table summary({"metric", "value"});
    summary.AddRow({"responses ok", std::to_string(ok)});
    summary.AddRow({"responses deadline_exceeded", std::to_string(deadline_exceeded)});
    summary.AddRow({"responses failed", std::to_string(failed)});
    summary.AddRow({"shed at admission", std::to_string(shed) + " (" +
                                             FormatDouble(shed_rate * 100.0, 1) + "%)"});
    summary.AddRow({"rejected (circuit open)", std::to_string(rejected)});
    summary.AddRow({"queue wait p50 / p99", FormatSeconds(queue_wait.Quantile(0.50)) + " / " +
                                                FormatSeconds(queue_wait.Quantile(0.99))});
    summary.AddRow({"execute p50 / p99", FormatSeconds(execute.Quantile(0.50)) + " / " +
                                             FormatSeconds(execute.Quantile(0.99))});
    summary.AddRow({"failovers", std::to_string(stats.failovers) + " (final epoch " +
                                     std::to_string(stats.plan_epoch) + ")"});
    summary.AddRow({"failover requeues", std::to_string(stats.requeued)});
    summary.Print();
  }

  if (!metrics_path.empty()) {
    obs::MetricsRegistry::Global().WriteFile(metrics_path);
    std::printf("metrics snapshot: %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    TraceWriter writer;
    AppendTracer(*tracer, writer);
    if (const Status written = writer.WriteFile(trace_path); !written.ok()) {
      std::fprintf(stderr, "t10_serve: --trace: %s\n", written.ToString().c_str());
      return 2;
    }
    std::printf("trace: %s (open in ui.perfetto.dev)\n", trace_path.c_str());
  }
  if (!plan_timings_path.empty()) {
    if (const Status written = plan_timings->WriteFile(plan_timings_path); !written.ok()) {
      std::fprintf(stderr, "t10_serve: --plan-timings: %s\n", written.ToString().c_str());
      return 2;
    }
    std::printf("plan timings: %s\n", plan_timings_path.c_str());
  }

  if (lost > 0 || duplicated > 0 || unknown > 0 || not_identical > 0) {
    std::fprintf(stderr, "t10_serve: SERVING INTEGRITY FAILURE\n");
    return 5;
  }
  if (!shutdown.ok()) {
    return 1;
  }
  std::printf("t10_serve: OK\n");
  return 0;
}
