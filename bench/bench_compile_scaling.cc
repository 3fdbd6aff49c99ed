// Compile-time scaling of the parallel intra-op search: wall time vs --jobs
// (1/2/4/8) on a cold signature cache, plus the warm-cache floor where the
// persistent plan cache eliminates the search entirely. The search dominates
// compile time (Fig 18); it cuts each distinct signature's F_op enumeration
// into chunks and runs them largest first, so the speedup tracks the
// workers' throughput rather than the largest signature. Every
// configuration is checked to produce a bit-identical model.
//
// Each cell is the median of five compiles (one in T10_BENCH_QUICK=1 mode),
// taken round-robin over models, job counts and cold/warm, so a cell's
// quartiles span the host's phases. T10_BENCH_JSON=<path> writes the
// per-model results as a JSON baseline (BENCH_compile.json tracks it
// in-repo): cold jobs=1 and jobs=4 and warm compile ms, each with the first
// and third quartile of its compiles (the host's spread), the plans the
// search evaluated, and an FNV checksum of the compiled model's
// Fingerprint(), so two builds can be compared for identical output.

#include <algorithm>
#include <array>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/compiler.h"
#include "src/core/pass/plan_cache.h"
#include "src/models/zoo.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace t10 {
namespace {

namespace fs = std::filesystem;

// Wall time of a cell's compiles: the median and the quartiles around it.
struct CellSeconds {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

CellSeconds Cell(const std::vector<double>& seconds) {
  return {Percentile(seconds, 50.0), Percentile(seconds, 25.0), Percentile(seconds, 75.0)};
}

// One compile in a fresh Compiler (as every t10c invocation is); returns its
// wall seconds. The model must match `fingerprint`, or sets it when empty.
double CompileOnce(const ChipSpec& chip, const Graph& graph, const CompileOptions& options,
                   std::string& fingerprint) {
  Compiler compiler(chip, options);
  CompiledModel model = compiler.Compile(graph);
  T10_CHECK(model.fits) << graph.name();
  const std::string fp = model.Fingerprint();
  T10_CHECK(fingerprint.empty() || fp == fingerprint)
      << graph.name() << ": jobs=" << options.jobs
      << (options.plan_cache_dir.empty() ? " cold" : " warm") << " produced a different model";
  fingerprint = fp;
  return model.compile_wall_seconds;
}

// One model's compiles, cell by cell.
struct ModelRuns {
  ModelRuns(const ModelInfo& model, const fs::path& cache_root)
      : info(&model),
        batch(model.batch_sizes.front()),
        graph(model.build(batch)),
        cache_dir(cache_root / model.name) {}

  const ModelInfo* info;
  std::int64_t batch;
  Graph graph;
  fs::path cache_dir;  // Filled once; the warm compiles read it.
  std::string fingerprint;
  std::array<std::vector<double>, 9> cold;  // Seconds, indexed by job count.
  std::vector<double> warm;
  std::int64_t plans_evaluated = 0;
};

void Run() {
  bench::Header("Compile scaling", "compile wall time vs --jobs, cold vs warm plan cache");
  std::printf("host concurrency: %d (speedup above this worker count is noise)\n\n",
              ThreadPool::HardwareConcurrency());
  const ChipSpec chip = ChipSpec::IpuMk2();
  const std::vector<int> job_counts = bench::QuickMode() ? std::vector<int>{1, 4}
                                                         : std::vector<int>{1, 2, 4, 8};
  const int reps = bench::QuickMode() ? 1 : 5;
  obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("compiler.search.evaluations");

  const fs::path cache_root = fs::temp_directory_path() / "t10_bench_compile_scaling";
  fs::remove_all(cache_root);

  const std::vector<ModelInfo> models = EvaluationModels();
  std::vector<ModelRuns> runs;
  runs.reserve(models.size());
  for (const ModelInfo& info : models) {
    fs::create_directories(runs.emplace_back(info, cache_root).cache_dir);
  }

  // The compiles go round-robin: each repetition compiles every model at
  // every job count, cold and warm, so each cell's quartiles span the host's
  // phases rather than one stretch of it. The first repetition's serial
  // compile pins each model's fingerprint; every other compile must match.
  for (int rep = 0; rep < reps; ++rep) {
    for (ModelRuns& run : runs) {
      for (const int jobs : job_counts) {
        CompileOptions options;
        options.jobs = jobs;
        const std::int64_t evaluations_before = evaluations.value();
        run.cold[static_cast<std::size_t>(jobs)].push_back(
            CompileOnce(chip, run.graph, options, run.fingerprint));
        if (rep == 0 && jobs == 1) {
          run.plans_evaluated = evaluations.value() - evaluations_before;
        }
      }
      // Warm persistent cache: a process-level compile against a directory
      // an earlier compile filled skips the search entirely.
      CompileOptions cached;
      cached.jobs = job_counts.back();
      cached.plan_cache_dir = run.cache_dir.string();
      if (rep == 0) {
        CompileOnce(chip, run.graph, cached, run.fingerprint);  // Populates the dir.
      }
      run.warm.push_back(CompileOnce(chip, run.graph, cached, run.fingerprint));
    }
  }
  fs::remove_all(cache_root);

  Table table({"Model", "BS", "Ops", "Sigs", "jobs=1", "jobs=2", "jobs=4", "jobs=8",
               "Speedup", "Warm cache"});
  std::vector<bench::JsonObject> rows;
  for (const ModelRuns& run : runs) {
    const ModelInfo& info = *run.info;
    const Graph& graph = run.graph;
    const std::int64_t batch = run.batch;
    std::array<CellSeconds, 9> cold{};  // Indexed by job count.
    for (const int jobs : job_counts) {
      cold[static_cast<std::size_t>(jobs)] = Cell(run.cold[static_cast<std::size_t>(jobs)]);
    }
    const CellSeconds warm = Cell(run.warm);
    const std::int64_t plans_evaluated = run.plans_evaluated;
    const std::string& serial_fp = run.fingerprint;

    int unique = 0;
    {
      Compiler probe(chip);
      probe.Compile(graph);
      unique = probe.num_cached_signatures();
    }

    const double base = cold[1].median;
    const int fastest = job_counts.back();
    auto cell = [&](int jobs) {
      const double s = cold[static_cast<std::size_t>(jobs)].median;
      return s > 0.0 ? bench::Ms(s) : std::string("-");
    };
    table.AddRow({info.name, std::to_string(batch), std::to_string(graph.num_ops()),
                  std::to_string(unique), cell(1), cell(2), cell(4), cell(8),
                  FormatDouble(base / cold[static_cast<std::size_t>(fastest)].median, 2) + "x",
                  bench::Ms(warm.median)});
    char fingerprint_fnv[17];
    std::snprintf(fingerprint_fnv, sizeof(fingerprint_fnv), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(serial_fp)));
    rows.push_back(bench::JsonObject()
                       .Add("model", info.name)
                       .Add("batch", batch)
                       .Add("cold_jobs1_ms", cold[1].median * 1e3, 3)
                       .Add("cold_jobs1_q1_ms", cold[1].q1 * 1e3, 3)
                       .Add("cold_jobs1_q3_ms", cold[1].q3 * 1e3, 3)
                       .Add("cold_jobs4_ms", cold[4].median * 1e3, 3)
                       .Add("cold_jobs4_q1_ms", cold[4].q1 * 1e3, 3)
                       .Add("cold_jobs4_q3_ms", cold[4].q3 * 1e3, 3)
                       .Add("speedup_jobs4", cold[1].median / cold[4].median, 2)
                       .Add("warm_ms", warm.median * 1e3, 3)
                       .Add("warm_q1_ms", warm.q1 * 1e3, 3)
                       .Add("warm_q3_ms", warm.q3 * 1e3, 3)
                       .Add("plans_evaluated", plans_evaluated)
                       .Add("fingerprint_fnv", fingerprint_fnv));
  }
  table.Print();
  bench::WriteJsonBaseline(bench::JsonObject()
                               .Add("bench", "compile_scaling")
                               .Add("host_concurrency", ThreadPool::HardwareConcurrency())
                               .Add("compiles_per_cell", reps)
                               .Add("models", rows));

  bench::Note(
      "Speedup is jobs=1 over the largest jobs count, cold cache. The fan-out cuts each "
      "distinct signature's search into chunks, so one large signature no longer sets the "
      "time; the warm column is the persistent plan cache (search skipped, bit-identical "
      "model).");
}

}  // namespace
}  // namespace t10

int main() {
  t10::Run();
  return 0;
}
