// Determinism of the parallel intra-op search: compiling the same graph with
// --jobs=1 and --jobs=8 must produce a byte-identical CompiledModel. The CI
// TSan job runs this test to catch data races in the fan-out as well.

#include <gtest/gtest.h>

#include <string>

#include "src/core/compiler.h"
#include "src/ir/builder.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

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

}  // namespace
}  // namespace t10
