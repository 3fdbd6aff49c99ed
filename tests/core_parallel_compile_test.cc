// Determinism of the parallel intra-op search: compiling the same graph with
// --jobs=1 and --jobs=8 must produce a byte-identical CompiledModel. The CI
// TSan job runs this test to catch data races in the fan-out as well.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "src/core/compiler.h"
#include "src/core/pass/plan_cache.h"
#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

namespace fs = std::filesystem;

ChipSpec SmallChip(int cores = 64) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = cores;
  chip.cores_per_chip = cores;
  return chip;
}

Graph Mlp(std::int64_t batch = 32) {
  Graph g("mlp");
  g.Add(MatMulOp("fc1", batch, 256, 512, DataType::kF16, "x", "w1", "h1"));
  g.Add(ElementwiseOp("gelu", {batch, 512}, DataType::kF16, "h1", "h2", 8.0));
  g.Add(MatMulOp("fc2", batch, 512, 256, DataType::kF16, "h2", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  return g;
}

// A wider graph so the parallel fan-out actually has >1 distinct signature
// in flight at once.
Graph WideStack() {
  Graph g("wide");
  std::string in = "x";
  for (int i = 0; i < 6; ++i) {
    const std::string w = NumberedName("w", i);
    const std::string out = NumberedName("h", i);
    // Vary the inner dimension so every layer has a distinct signature.
    g.Add(MatMulOp(NumberedName("fc", i), 16, 128 + 32 * i, 128 + 32 * (i + 1),
                   DataType::kF16, in, w, out));
    g.MarkWeight(w);
    in = out;
  }
  g.Add(ElementwiseOp("act", {16, 128 + 32 * 6}, DataType::kF16, in, "y", 8.0));
  return g;
}

std::string CompileFingerprint(const Graph& graph, int jobs) {
  CompileOptions options;
  options.jobs = jobs;
  Compiler compiler(SmallChip(), options);
  CompiledModel model = compiler.Compile(graph);
  EXPECT_TRUE(model.fits);
  return model.Fingerprint();
}

TEST(ParallelCompileTest, MlpIsBitDeterministicAcrossJobCounts) {
  const Graph graph = Mlp();
  const std::string serial = CompileFingerprint(graph, 1);
  EXPECT_EQ(serial, CompileFingerprint(graph, 2));
  EXPECT_EQ(serial, CompileFingerprint(graph, 8));
}

TEST(ParallelCompileTest, WideStackIsBitDeterministicAcrossJobCounts) {
  const Graph graph = WideStack();
  const std::string serial = CompileFingerprint(graph, 1);
  EXPECT_EQ(serial, CompileFingerprint(graph, 8));
}

TEST(ParallelCompileTest, DefaultJobsZeroMeansHardwareConcurrency) {
  const Graph graph = Mlp();
  const std::string serial = CompileFingerprint(graph, 1);
  EXPECT_EQ(serial, CompileFingerprint(graph, 0));
}

TEST(ParallelCompileTest, ParallelCompileKeepsCacheCounterContract) {
  // The hit/miss funnel must not depend on the worker count: the demo-style
  // graph has 3 distinct signatures, so a fresh compile reports 3 misses
  // regardless of jobs.
  for (int jobs : {1, 8}) {
    obs::MetricsRegistry::Global().Reset();
    CompileOptions options;
    options.jobs = jobs;
    Compiler compiler(SmallChip(), options);
    const Graph graph = Mlp();
    CompiledModel model = compiler.Compile(graph);
    ASSERT_TRUE(model.fits);
    EXPECT_EQ(
        obs::MetricsRegistry::Global().GetCounter("compiler.cache.misses").value(),
        3)
        << "jobs=" << jobs;
  }
  obs::MetricsRegistry::Global().Reset();
}

TEST(ParallelCompileTest, ReconcileTrajectoryIdenticalAcrossJobCounts) {
  const Graph graph = WideStack();
  CompileOptions serial_opts;
  serial_opts.jobs = 1;
  Compiler serial(SmallChip(), serial_opts);
  CompiledModel a = serial.Compile(graph);

  CompileOptions parallel_opts;
  parallel_opts.jobs = 8;
  Compiler parallel(SmallChip(), parallel_opts);
  CompiledModel b = parallel.Compile(graph);

  ASSERT_TRUE(a.fits);
  ASSERT_TRUE(b.fits);
  ASSERT_EQ(a.reconcile_trajectory.size(), b.reconcile_trajectory.size());
  for (std::size_t i = 0; i < a.reconcile_trajectory.size(); ++i) {
    EXPECT_EQ(a.reconcile_trajectory[i].idle_bytes_per_core,
              b.reconcile_trajectory[i].idle_bytes_per_core);
    EXPECT_EQ(a.reconcile_trajectory[i].total_seconds,
              b.reconcile_trajectory[i].total_seconds);
    EXPECT_EQ(a.reconcile_trajectory[i].feasible, b.reconcile_trajectory[i].feasible);
  }
}

// Every compiler.search.* and compiler.cache.* counter but
// fops_dominated, the one count that depends on how the search is cut.
std::map<std::string, std::int64_t> ScheduleFreeCounts() {
  std::map<std::string, std::int64_t> counts;
  for (const char* name :
       {"compiler.search.searches", "compiler.search.evaluations", "compiler.search.fop_visited",
        "compiler.search.filtered_plans", "compiler.search.pareto_plans",
        "compiler.search.relaxations", "compiler.cache.hits", "compiler.cache.misses"}) {
    counts[name] = obs::MetricsRegistry::Global().GetCounter(name).value();
  }
  return counts;
}

// The evaluation zoo at batch 1 on the full IPU Mk2, which shares one Pareto
// set among many operators (BERT: 336 operators, 10 signatures): cold and
// warm compiles at one to eight workers give the same model — pinned to the
// FNV-1a of its Fingerprint() that BENCH_compile.json records — and the same
// search and cache counts, and every compiled plan references its own
// operator.
TEST(ParallelCompileTest, ZooFingerprintsMatchColdWarmAndJobCounts) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"BERT", 0x88fc9d629d9e0298ull},
      {"ViT", 0x15bb29058fa4ab05ull},
      {"ResNet", 0xbd6b7ae0f606d582ull},
      {"NeRF", 0x84bf8a4dd103e77dull},
  };
  const fs::path dir = fs::temp_directory_path() / "t10_parallel_compile_test_zoo";
  for (const ModelInfo& info : EvaluationModels()) {
    SCOPED_TRACE(info.name);
    const Graph graph = info.build(1);
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const bool warm : {false, true}) {
      std::map<std::string, std::int64_t> serial_counts;
      for (const int jobs : {1, 2, 3, 4, 8}) {
        CompileOptions options;
        options.jobs = jobs;
        // The cold jobs=4 compile fills the directory the warm ones read.
        if (warm || jobs == 4) {
          options.plan_cache_dir = dir.string();
        }
        std::map<std::string, std::int64_t> counts = ScheduleFreeCounts();
        Compiler compiler(ChipSpec::IpuMk2(), options);
        const CompiledModel model = compiler.Compile(graph);
        ASSERT_TRUE(model.fits) << "warm=" << warm << " jobs=" << jobs;
        EXPECT_EQ(Fnv1a64(model.Fingerprint()), pinned.at(info.name))
            << "warm=" << warm << " jobs=" << jobs;
        for (auto& [name, value] : counts) {
          value = obs::MetricsRegistry::Global().GetCounter(name).value() - value;
        }
        if (jobs == 1) {
          serial_counts = counts;
        } else {
          EXPECT_EQ(counts, serial_counts) << "warm=" << warm << " jobs=" << jobs;
        }
        for (const CompiledOp& op : model.ops) {
          ASSERT_EQ(&op.active_plan.op(), &graph.op(op.op_index));
          ASSERT_EQ(&op.idle_plan.op(), &graph.op(op.op_index));
        }
      }
    }
  }
  fs::remove_all(dir);
}

// The search publishes its phase times once per signature, however many
// chunks it ran as: every compiler.phase.* histogram of the search gets one
// sample per search.
TEST(ParallelCompileTest, SearchPhaseTimersRecordOncePerSearch) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  CompileOptions options;
  options.jobs = 4;
  Compiler compiler(SmallChip(), options);
  ASSERT_TRUE(compiler.Compile(WideStack()).fits);
  const std::int64_t searches = metrics.GetCounter("compiler.search.searches").value();
  EXPECT_EQ(searches, 7);
  for (const char* phase : {"filtering", "cost_eval", "enumeration", "pareto"}) {
    EXPECT_EQ(metrics.GetHistogram(std::string("compiler.phase.") + phase + ".seconds").count(),
              searches)
        << phase;
  }
  metrics.Reset();
}

}  // namespace
}  // namespace t10
