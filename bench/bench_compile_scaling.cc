// Compile-time scaling of the parallel intra-op search: wall time vs --jobs
// (1/2/4/8) on a cold signature cache, plus the warm-cache floor where the
// persistent plan cache eliminates the search entirely. The search dominates
// compile time (Fig 18), so the speedup tracks how well the per-operator
// fan-out fills the workers: models with many *distinct* signatures scale,
// models dominated by one repeated signature do not (the cache dedupes them
// before the fan-out). Every configuration is checked to produce a
// bit-identical model.
//
// Each cell is the median of five compiles (one in T10_BENCH_QUICK=1 mode).
// T10_BENCH_JSON=<path> writes the per-model results as a JSON baseline
// (BENCH_compile.json tracks it in-repo): cold jobs=1 and jobs=4 and warm
// compile ms, each with the first and third quartile of its compiles (the
// host's spread), the plans the search evaluated, and an FNV checksum of the
// compiled model's Fingerprint(), so two builds can be compared for
// identical output.

#include <algorithm>
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

// Times `reps` compiles, each in a fresh Compiler (as every t10c invocation
// is). Every compile must produce the same model, whose Fingerprint() lands
// in `fingerprint`.
CellSeconds CompileSeconds(const ChipSpec& chip, const Graph& graph,
                           const CompileOptions& options, int reps, std::string* fingerprint) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    Compiler compiler(chip, options);
    CompiledModel model = compiler.Compile(graph);
    T10_CHECK(model.fits) << graph.name();
    const std::string fp = model.Fingerprint();
    T10_CHECK(rep == 0 || fp == *fingerprint) << graph.name() << ": compiles differ";
    *fingerprint = fp;
    seconds.push_back(model.compile_wall_seconds);
  }
  return {Percentile(seconds, 50.0), Percentile(seconds, 25.0), Percentile(seconds, 75.0)};
}

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

  const fs::path cache_dir = fs::temp_directory_path() / "t10_bench_compile_scaling";

  Table table({"Model", "BS", "Ops", "Sigs", "jobs=1", "jobs=2", "jobs=4", "jobs=8",
               "Speedup", "Warm cache"});
  std::vector<bench::JsonObject> rows;
  for (const ModelInfo& info : EvaluationModels()) {
    const std::int64_t batch = info.batch_sizes.front();
    const Graph graph = info.build(batch);

    std::string serial_fp;
    std::vector<CellSeconds> cold(9);  // Indexed by job count.
    std::int64_t plans_evaluated = 0;
    for (const int jobs : job_counts) {
      CompileOptions options;
      options.jobs = jobs;
      std::string fp;
      const std::int64_t evaluations_before = evaluations.value();
      cold[static_cast<std::size_t>(jobs)] =
          CompileSeconds(chip, graph, options, reps, jobs == 1 ? &serial_fp : &fp);
      if (jobs == 1) {
        plans_evaluated = (evaluations.value() - evaluations_before) / reps;
      } else {
        T10_CHECK(fp == serial_fp) << info.name << ": jobs=" << jobs
                                   << " produced a different model";
      }
    }

    // Warm persistent cache: a second process-level compile against the same
    // directory skips the search entirely.
    fs::remove_all(cache_dir);
    fs::create_directories(cache_dir);
    CompileOptions cached;
    cached.jobs = job_counts.back();
    cached.plan_cache_dir = cache_dir.string();
    std::string warm_fp;
    CompileSeconds(chip, graph, cached, 1, &warm_fp);  // Cold run populates the dir.
    const CellSeconds warm = CompileSeconds(chip, graph, cached, reps, &warm_fp);
    T10_CHECK(warm_fp == serial_fp) << info.name << ": warm cache produced a different model";

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
  fs::remove_all(cache_dir);
  bench::WriteJsonBaseline(bench::JsonObject()
                               .Add("bench", "compile_scaling")
                               .Add("host_concurrency", ThreadPool::HardwareConcurrency())
                               .Add("compiles_per_cell", reps)
                               .Add("models", rows));

  bench::Note(
      "Speedup is jobs=1 over the largest jobs count, cold cache. The fan-out parallelises "
      "distinct operator signatures, so repeated-layer models saturate below the worker count; "
      "the warm column is the persistent plan cache (search skipped, bit-identical model).");
}

}  // namespace
}  // namespace t10

int main() {
  t10::Run();
  return 0;
}
