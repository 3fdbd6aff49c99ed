#include "src/core/compiler.h"

#include <gtest/gtest.h>

#include <chrono>

#include "src/ir/builder.h"
#include "src/ir/parser.h"
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

TEST(CompilerTest, CompilesMlpEndToEnd) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  const obs::Histogram& total = metrics.GetHistogram("compiler.phase.total.seconds");
  const obs::Counter& compiles = metrics.GetCounter("compiler.compiles");
  Compiler compiler(SmallChip());
  Graph graph = Mlp();
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  ASSERT_EQ(model.ops.size(), 3u);
  EXPECT_GT(model.TotalSeconds(), 0.0);
  EXPECT_GT(model.ComputeSeconds(), 0.0);
  EXPECT_GT(model.compile_wall_seconds, 0.0);
  // One compile span times the compile: its one sample is the reported wall
  // time, and each compile records exactly one sample.
  EXPECT_EQ(total.count(), compiles.value());
  ASSERT_EQ(total.count(), 1);
  EXPECT_EQ(total.sum(), model.compile_wall_seconds);
  for (const CompiledOp& op : model.ops) {
    EXPECT_LE(op.measured.per_core_bytes, SmallChip().core_memory_bytes);
    EXPECT_GT(op.pareto_count, 0);
  }
}

TEST(CompilerTest, PredictedCloseToMeasured) {
  Compiler compiler(SmallChip());
  Graph graph = Mlp();
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  for (const CompiledOp& op : model.ops) {
    const double predicted = op.predicted.total_seconds();
    const double measured = op.measured.total_seconds();
    EXPECT_NEAR(predicted / measured, 1.0, 0.25)
        << "op " << op.op_index << ": " << predicted << " vs " << measured;
  }
}

TEST(CompilerTest, SignatureCacheReusesSearches) {
  Compiler compiler(SmallChip());
  Graph g("stack");
  // Four identical layers: the second..fourth hit the cache.
  for (int i = 0; i < 4; ++i) {
    std::string in = i == 0 ? "x" : NumberedName("h", i - 1);
    g.Add(MatMulOp(NumberedName("fc", i), 16, 128, 128, DataType::kF16, in,
                   NumberedName("w", i), NumberedName("h", i)));
    g.MarkWeight(NumberedName("w", i));
  }
  const auto t0 = std::chrono::steady_clock::now();
  IntraOpResult first = compiler.SearchOp(g.op(0));
  const auto t1 = std::chrono::steady_clock::now();
  IntraOpResult second = compiler.SearchOp(g.op(1));
  const auto t2 = std::chrono::steady_clock::now();
  EXPECT_EQ(first.pareto.size(), second.pareto.size());
  // Cached search must be dramatically cheaper (no enumeration).
  const double cold = std::chrono::duration<double>(t1 - t0).count();
  const double warm = std::chrono::duration<double>(t2 - t1).count();
  EXPECT_LT(warm, cold);
  // Cached plans reference the *new* operator.
  EXPECT_EQ(&second.pareto.front().plan.op(), &g.op(1));
}

TEST(CompilerTest, CacheCountersMatchCachedSignatures) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& hits = metrics.GetCounter("compiler.cache.hits");
  obs::Counter& misses = metrics.GetCounter("compiler.cache.misses");
  const std::int64_t hits_before = hits.value();
  const std::int64_t misses_before = misses.value();

  Compiler compiler(SmallChip());
  Graph g("stack");
  // Four identical layers and one distinct one: 2 misses, 3 hits.
  for (int i = 0; i < 4; ++i) {
    std::string in = i == 0 ? "x" : NumberedName("h", i - 1);
    g.Add(MatMulOp(NumberedName("fc", i), 16, 128, 128, DataType::kF16, in,
                   NumberedName("w", i), NumberedName("h", i)));
    g.MarkWeight(NumberedName("w", i));
  }
  g.Add(ElementwiseOp("act", {16, 128}, DataType::kF16, "h3", "y", 4.0));
  for (const Operator& op : g.ops()) {
    compiler.SearchOp(op);
  }
  EXPECT_EQ(misses.value() - misses_before, compiler.num_cached_signatures());
  EXPECT_EQ(compiler.num_cached_signatures(), 2);
  EXPECT_EQ(hits.value() - hits_before, 3);
}

TEST(CompilerTest, CompiledPlansAreBoundToTheirOwnOperator) {
  // Four identical layers share one Pareto set; every compiled plan must
  // still reference its own operator.
  Graph g("stack");
  for (int i = 0; i < 4; ++i) {
    std::string in = i == 0 ? "x" : NumberedName("h", i - 1);
    g.Add(MatMulOp(NumberedName("fc", i), 16, 128, 128, DataType::kF16, in,
                   NumberedName("w", i), NumberedName("h", i)));
    g.MarkWeight(NumberedName("w", i));
  }
  Compiler compiler(SmallChip());
  const CompiledModel model = compiler.Compile(g);
  ASSERT_TRUE(model.fits);
  ASSERT_EQ(model.ops.size(), 4u);
  for (const CompiledOp& op : model.ops) {
    EXPECT_EQ(&op.active_plan.op(), &g.op(op.op_index)) << op.op_index;
    EXPECT_EQ(&op.idle_plan.op(), &g.op(op.op_index)) << op.op_index;
  }
}

TEST(CompilerTest, OversizedModelDoesNotFit) {
  ChipSpec chip = SmallChip(4);
  chip.core_memory_bytes = 32 * 1024;
  Compiler compiler(chip);
  Graph g("huge");
  g.Add(MatMulOp("fc", 64, 4096, 4096, DataType::kF16, "x", "w", "y"));
  g.MarkWeight("w");
  CompiledModel model = compiler.Compile(g);
  EXPECT_FALSE(model.fits);
  EXPECT_TRUE(model.ops.empty());
}

TEST(CompilerTest, TransitionChargedOnLayoutMismatch) {
  Compiler compiler(SmallChip());
  Graph graph = Mlp();
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  // First op consumes a graph input: never a transition.
  EXPECT_DOUBLE_EQ(model.ops[0].transition_seconds, 0.0);
  // Downstream ops may or may not match layouts, but transitions are small
  // relative to execution (paper §5).
  for (const CompiledOp& op : model.ops) {
    EXPECT_LT(op.transition_seconds, 0.5 * model.TotalSeconds());
  }
}

TEST(CompilerTest, ReconcileTrajectoryRecorded) {
  Compiler compiler(SmallChip());
  Graph graph = Mlp();
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  ASSERT_FALSE(model.reconcile_trajectory.empty());
  EXPECT_GE(model.idle_bytes_per_core, 0);
}

TEST(CompilerTest, InterOpOffMatchesFirstTrajectoryPoint) {
  CompileOptions options;
  options.inter_op_reconcile = false;
  Compiler compiler(SmallChip(), options);
  Graph graph = Mlp();
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  ASSERT_EQ(model.reconcile_trajectory.size(), 1u);
}

TEST(CompilerTest, EmptyGraphCompiles) {
  Compiler compiler(SmallChip());
  Graph g("empty");
  CompiledModel model = compiler.Compile(g);
  EXPECT_TRUE(model.fits);
  EXPECT_TRUE(model.ops.empty());
  EXPECT_DOUBLE_EQ(model.TotalSeconds(), 0.0);
}

TEST(CompilerTest, SignatureDistinguishesDtypeAndStride) {
  Compiler compiler(SmallChip());
  // Same shapes, different dtype: must not share a cache entry (footprints
  // differ), so the chosen plans' memory differs by the element size.
  Graph g("dtypes");
  g.Add(MatMulOp("f16", 32, 64, 64, DataType::kF16, "a0", "b0", "c0"));
  g.Add(MatMulOp("f32", 32, 64, 64, DataType::kF32, "a1", "b1", "c1"));
  g.Add(Conv2dOp("s1", 1, 4, 8, 8, 8, 3, 3, DataType::kF16, "i0", "w0", "o0", 1));
  g.Add(Conv2dOp("s2", 1, 4, 8, 8, 8, 3, 3, DataType::kF16, "i1", "w1", "o1", 2));
  for (const Operator& op : g.ops()) {
    compiler.SearchOp(op);
  }
  EXPECT_EQ(compiler.num_cached_signatures(), 4);
}

TEST(CompilerTest, MemoryPeakRecorded) {
  Compiler compiler(SmallChip());
  Graph graph = Mlp();
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  EXPECT_GT(model.memory_peak_bytes, 0);
  EXPECT_LE(model.memory_peak_bytes, SmallChip().core_memory_bytes);
}

TEST(CompilerTest, ParsedModelCompiles) {
  const char* text = R"(
    model parsed
    gather name=emb n=64 vocab=1000 embed=128 idx=ids table=tbl out=e weight=tbl
    matmul name=proj m=64 k=128 n=128 a=e b=w c=h weight=w
    unary  name=act shape=64x128 in=h out=y cost=4
  )";
  Graph graph = ParseModelText(text);
  Compiler compiler(SmallChip());
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  EXPECT_EQ(model.ops.size(), 3u);
}

}  // namespace
}  // namespace t10
