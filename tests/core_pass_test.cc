// PassManager mechanics (Continue/Stop, start passes, verify hooks),
// pipeline equivalence with the Compiler driver, and the memory_plan pass's
// fit of Algorithm 1's schedule to the liveness plan.

#include "src/core/pass/pass.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/pass/compilation_context.h"
#include "src/core/pass/intra_op_search.h"
#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/verify/pass_checks.h"
#include "src/verify/verifier.h"

namespace t10 {
namespace {

ChipSpec SmallChip(int cores = 64) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = cores;
  chip.cores_per_chip = cores;
  return chip;
}

// Three matmuls and a skip add: h1 stays live across fc2 and fc3, which
// Algorithm 1's budget does not see, so small cores make the memory plan
// overshoot its first schedule.
Graph ResidualBlock(std::int64_t batch) {
  Graph g("residual");
  g.Add(MatMulOp("fc1", batch, 256, 256, DataType::kF16, "x", "w1", "h1"));
  g.Add(MatMulOp("fc2", batch, 256, 256, DataType::kF16, "h1", "w2", "h2"));
  g.Add(MatMulOp("fc3", batch, 256, 256, DataType::kF16, "h2", "w3", "h3"));
  g.Add(BinaryOp("add", {batch, 256}, DataType::kF16, "h1", "h3", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  g.MarkWeight("w3");
  return g;
}

ChipSpec WithCoreMemory(ChipSpec chip, std::int64_t kib) {
  chip.core_memory_bytes = kib * 1024;
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

// PassManager::Run requires a live graph and resources even when the passes
// under test never touch them.
struct TestContext {
  Graph graph = Mlp();
  CompilerResources resources{SmallChip(), CompileOptions{}};
  CompilationContext ctx;

  TestContext() {
    ctx.graph = &graph;
    ctx.resources = &resources;
    ctx.model.model_name = graph.name();
  }
};

// A scriptable pass: appends its name to a shared trace and returns the next
// scripted result each time it runs (Continue once the script runs out).
class FakePass : public Pass {
 public:
  FakePass(const char* name, std::vector<std::string>* trace,
           std::vector<PassResult> script = {})
      : name_(name), trace_(trace), script_(std::move(script)) {}

  const char* name() const override { return name_; }

  PassResult Run(CompilationContext&) override {
    trace_->push_back(name_);
    if (next_ < script_.size()) {
      return script_[next_++];
    }
    return PassResult::Continue();
  }

 private:
  const char* name_;
  std::vector<std::string>* trace_;
  std::vector<PassResult> script_;
  std::size_t next_ = 0;
};

TEST(PassManagerTest, StandardPipelineNamesMatchCompiler) {
  const std::vector<std::string> expected = {
      pass_names::kFitCostModel, pass_names::kIntraOpSearch,
      pass_names::kInterOpReconcile, pass_names::kMemoryPlan,
      pass_names::kFinalize};
  EXPECT_EQ(BuildCompilerPipeline().PassNames(), expected);
  EXPECT_EQ(Compiler::PassNames(), expected);
}

TEST(PassManagerTest, RunsPassesInOrder) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>("a", &trace));
  pm.AddPass(std::make_unique<FakePass>("b", &trace));
  pm.AddPass(std::make_unique<FakePass>("c", &trace));
  TestContext t;
  pm.Run(t.ctx);
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(PassManagerTest, StopEndsThePipelineEarly) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>("a", &trace));
  pm.AddPass(std::make_unique<FakePass>(
      "b", &trace, std::vector<PassResult>{PassResult::Stop()}));
  pm.AddPass(std::make_unique<FakePass>("c", &trace));
  TestContext t;
  pm.Run(t.ctx);
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b"}));
}

TEST(PassManagerTest, StartPassSkipsEarlierPasses) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>("a", &trace));
  pm.AddPass(std::make_unique<FakePass>("b", &trace));
  pm.AddPass(std::make_unique<FakePass>("c", &trace));
  TestContext t;
  pm.Run(t.ctx, "b");
  EXPECT_EQ(trace, (std::vector<std::string>{"b", "c"}));
}

TEST(PassManagerDeathTest, UnknownStartPassIsFatal) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>("a", &trace));
  TestContext t;
  EXPECT_DEATH(pm.Run(t.ctx, "nonexistent"), "unknown pass");
}

// A pass whose verification always reports an error diagnostic.
class BadVerifyPass : public Pass {
 public:
  const char* name() const override { return "bad_verify"; }
  PassResult Run(CompilationContext&) override { return PassResult::Continue(); }
  verify::VerifyResult Verify(const CompilationContext&) const override {
    verify::VerifyResult result;
    verify::Diagnostic diagnostic;
    diagnostic.rule = "test.always-fails";
    diagnostic.object = "bad_verify";
    diagnostic.message = "synthetic verification failure";
    result.Add(std::move(diagnostic));
    return result;
  }
};

TEST(PassManagerDeathTest, FailingVerifyHookIsFatalWhenEnabled) {
  ::setenv("T10_INTERNAL_VERIFY", "1", 1);
  if (!verify::InternalVerifyEnabled()) {
    // The enable flag is latched on first use; an earlier disabled read in
    // this (release-built) process wins and the hook cannot fire.
    GTEST_SKIP() << "internal verification latched off in this process";
  }
  PassManager pm;
  pm.AddPass(std::make_unique<BadVerifyPass>());
  TestContext t;
  EXPECT_DEATH(pm.Run(t.ctx), "always-fails");
}

TEST(PassPipelineTest, ManualPipelineMatchesCompilerDriver) {
  const Graph graph = Mlp();
  Compiler compiler(SmallChip());
  CompiledModel via_driver = compiler.Compile(graph);
  ASSERT_TRUE(via_driver.fits);

  // Driving the standard pipeline by hand over a fresh context must decide
  // exactly the same model.
  TestContext t;
  BuildCompilerPipeline().Run(t.ctx);
  ASSERT_TRUE(t.ctx.model.fits);
  EXPECT_EQ(t.ctx.model.Fingerprint(), via_driver.Fingerprint());
}

TEST(PassPipelineTest, PipelineRecordsPerPassRunCounters) {
  obs::MetricsRegistry::Global().Reset();
  const Graph graph = Mlp();
  Compiler compiler(SmallChip());
  ASSERT_TRUE(compiler.Compile(graph).fits);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  // Every pass runs once, and its span times that run: one sample.
  auto expect_one_run_per_pass = [&metrics]() {
    for (const std::string& pass : Compiler::PassNames()) {
      const std::string prefix = "compiler.pass." + pass;
      EXPECT_EQ(metrics.GetCounter(prefix + ".runs").value(), 1) << pass;
      EXPECT_EQ(metrics.GetHistogram(prefix + ".seconds").count(), 1) << pass;
    }
  };
  auto samples = [&metrics](const char* histogram) {
    return metrics.GetHistogram(histogram).count();
  };
  expect_one_run_per_pass();
  EXPECT_EQ(samples("compiler.phase.memory_plan.seconds"), 1);
  EXPECT_EQ(samples("compiler.phase.materialize.seconds"), 1);
  EXPECT_EQ(samples("compiler.phase.reconcile.seconds"), 0);

  // A residual block on 128 KiB cores: the first memory plan overshoots, so
  // memory_plan reconciles and plans again within its one run before the
  // plan fits, and materializes the CompiledOps once, after the last plan.
  metrics.Reset();
  Compiler retrying(WithCoreMemory(SmallChip(16), 128));
  ASSERT_TRUE(retrying.Compile(ResidualBlock(256)).fits);
  expect_one_run_per_pass();
  EXPECT_GT(samples("compiler.phase.memory_plan.seconds"), 1);
  EXPECT_EQ(samples("compiler.phase.reconcile.seconds"),
            samples("compiler.phase.memory_plan.seconds") - 1);
  EXPECT_EQ(samples("compiler.phase.materialize.seconds"), 1);
  metrics.Reset();
}

TEST(PassPipelineTest, CompileFromIntraOpSearchMatchesFullCompile) {
  // ReplanDegraded restarts the pipeline at IntraOpSearch; on a healthy chip
  // that shortcut must decide the same model as a full compile (FitCostModel
  // only forces lazily-created resources).
  const Graph graph = Mlp();
  Compiler full(SmallChip());
  CompiledModel full_model = full.Compile(graph);
  ASSERT_TRUE(full_model.fits);

  Compiler restarted(SmallChip());
  CompiledModel restarted_model =
      restarted.CompileFrom(graph, pass_names::kIntraOpSearch);
  ASSERT_TRUE(restarted_model.fits);
  EXPECT_EQ(restarted_model.Fingerprint(), full_model.Fingerprint());
}

TEST(PassPipelineTest, SearchKeepsOneParetoSetPerSignature) {
  // fc1..fc3 share a signature; the add has its own.
  TestContext t;
  t.graph = ResidualBlock(32);
  IntraOpSearchPass search;
  ASSERT_EQ(search.Run(t.ctx).action, PassResult::Action::kContinue);
  ASSERT_EQ(t.ctx.searches.size(), 2u);
  EXPECT_EQ(t.ctx.search_of_op, (std::vector<int>{0, 0, 0, 1}));
  EXPECT_EQ(&t.ctx.search(2), &t.ctx.searches[0]);
  EXPECT_TRUE(verify::CheckSearchResults(t.ctx).empty());

  // An operator pointing at another signature's set, or at a set its
  // signature has not opened yet, breaks the coverage rule.
  t.ctx.search_of_op[3] = 0;
  EXPECT_TRUE(verify::CheckSearchResults(t.ctx).HasRule("pass.search.coverage"));
  t.ctx.search_of_op = {0, 1, 1, 1};
  EXPECT_TRUE(verify::CheckSearchResults(t.ctx).HasRule("pass.search.coverage"));
  t.ctx.search_of_op = {0, 0, 0};
  EXPECT_TRUE(verify::CheckSearchResults(t.ctx).HasRule("pass.search.coverage"));
}

// A residual block at batch 32 fits 40 and 56 KiB cores, so it must fit the
// sizes around them too.
TEST(MemoryFitTest, ResidualBlockFits48And64KiBCores) {
  for (const std::int64_t kib : {48, 64}) {
    Compiler compiler(WithCoreMemory(SmallChip(16), kib));
    const CompiledModel model = compiler.Compile(ResidualBlock(32));
    EXPECT_TRUE(model.fits) << kib << " KiB";
    EXPECT_LE(model.memory_peak_bytes, kib * 1024) << kib << " KiB";
  }
}

// Once a graph fits cores of some size, it fits every larger size.
void ExpectFitsMonotoneInCoreMemory(const ChipSpec& chip, const Graph& graph,
                                    const std::vector<std::int64_t>& kibs) {
  bool fitted = false;
  for (const std::int64_t kib : kibs) {
    CompileOptions options;
    options.jobs = 2;
    Compiler compiler(WithCoreMemory(chip, kib), options);
    const CompiledModel model = compiler.Compile(graph);
    EXPECT_TRUE(model.fits || !fitted) << graph.name() << " fits a smaller core but not " << kib
                                       << " KiB";
    if (model.fits) {
      EXPECT_LE(model.memory_peak_bytes, kib * 1024) << graph.name() << " at " << kib << " KiB";
    }
    fitted = fitted || model.fits;
  }
}

TEST(MemoryFitPropertyTest, ResidualBlockFitsMonotoneInCoreMemory) {
  std::vector<std::int64_t> kibs;
  for (std::int64_t kib = 40; kib <= 128; kib += 8) {
    kibs.push_back(kib);
  }
  for (const std::int64_t batch : {16, 32, 64, 128, 256}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    ExpectFitsMonotoneInCoreMemory(SmallChip(16), ResidualBlock(batch), kibs);
  }
}

// The BERT and ViT sizes bracket the points where a budget search that
// gives up more memory than the overshoot stops fitting.
TEST(MemoryFitPropertyTest, OneLayerBertFitsMonotoneInCoreMemory) {
  ExpectFitsMonotoneInCoreMemory(ChipSpec::IpuMk2(), BuildBertLarge(4, 1), {176, 192, 208, 224});
}

TEST(MemoryFitPropertyTest, OneLayerVitFitsMonotoneInCoreMemory) {
  ExpectFitsMonotoneInCoreMemory(ChipSpec::IpuMk2(), BuildVitBase(32, 1), {320, 384, 448});
}

}  // namespace
}  // namespace t10
