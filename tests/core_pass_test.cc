// PassManager mechanics (Continue/Stop/RetryFrom, run caps, verify hooks)
// and pipeline equivalence with the Compiler driver.

#include "src/core/pass/pass.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/pass/compilation_context.h"
#include "src/ir/builder.h"
#include "src/obs/metrics.h"
#include "src/verify/verifier.h"

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

TEST(PassManagerTest, RetryFromJumpsBackToEarlierPass) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>("a", &trace));
  pm.AddPass(std::make_unique<FakePass>("b", &trace));
  // First run retries from "b", second run continues.
  pm.AddPass(std::make_unique<FakePass>(
      "c", &trace,
      std::vector<PassResult>{PassResult::RetryFrom("b"), PassResult::Continue()}));
  TestContext t;
  pm.Run(t.ctx);
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b", "c", "b", "c"}));
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

TEST(PassManagerDeathTest, RetryFromLaterPassIsFatal) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>(
      "a", &trace, std::vector<PassResult>{PassResult::RetryFrom("b")}));
  pm.AddPass(std::make_unique<FakePass>("b", &trace));
  TestContext t;
  EXPECT_DEATH(pm.Run(t.ctx), "earlier pass");
}

TEST(PassManagerDeathTest, UnknownStartPassIsFatal) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>("a", &trace));
  TestContext t;
  EXPECT_DEATH(pm.Run(t.ctx, "nonexistent"), "unknown pass");
}

TEST(PassManagerDeathTest, EndlessRetryLoopHitsTheRunCap) {
  std::vector<std::string> trace;
  PassManager pm;
  pm.AddPass(std::make_unique<FakePass>("a", &trace));
  // "b" always retries from "a": without the cap this would never end.
  std::vector<PassResult> forever(
      static_cast<std::size_t>(PassManager::kMaxPassRuns) + 2,
      PassResult::RetryFrom("a"));
  pm.AddPass(std::make_unique<FakePass>("b", &trace, std::move(forever)));
  TestContext t;
  EXPECT_DEATH(pm.Run(t.ctx), "did not converge");
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
  auto runs = [](const std::string& pass) {
    return obs::MetricsRegistry::Global()
        .GetCounter("compiler.pass." + pass + ".runs")
        .value();
  };
  // The pass span times every run, retried ones included: one sample each.
  auto expect_one_sample_per_run = []() {
    for (const std::string& pass : Compiler::PassNames()) {
      const std::string prefix = "compiler.pass." + pass;
      EXPECT_EQ(obs::MetricsRegistry::Global().GetHistogram(prefix + ".seconds").count(),
                obs::MetricsRegistry::Global().GetCounter(prefix + ".runs").value())
          << pass;
    }
  };
  EXPECT_EQ(runs(pass_names::kFitCostModel), 1);
  EXPECT_EQ(runs(pass_names::kIntraOpSearch), 1);
  EXPECT_GE(runs(pass_names::kInterOpReconcile), 1);
  EXPECT_GE(runs(pass_names::kMemoryPlan), 1);
  EXPECT_EQ(runs(pass_names::kFinalize), 1);
  expect_one_sample_per_run();

  // A residual block on 128 KiB cores: h1 stays live across fc2 and fc3, so
  // the first memory plan overshoots and the pipeline loops back to
  // InterOpReconcile before it fits.
  obs::MetricsRegistry::Global().Reset();
  ChipSpec tight = SmallChip(16);
  tight.core_memory_bytes = 128 * 1024;
  Graph residual("residual");
  residual.Add(MatMulOp("fc1", 256, 256, 256, DataType::kF16, "x", "w1", "h1"));
  residual.Add(MatMulOp("fc2", 256, 256, 256, DataType::kF16, "h1", "w2", "h2"));
  residual.Add(MatMulOp("fc3", 256, 256, 256, DataType::kF16, "h2", "w3", "h3"));
  residual.Add(BinaryOp("add", {256, 256}, DataType::kF16, "h1", "h3", "y"));
  residual.MarkWeight("w1");
  residual.MarkWeight("w2");
  residual.MarkWeight("w3");
  Compiler retrying(tight);
  ASSERT_TRUE(retrying.Compile(residual).fits);
  EXPECT_GT(runs(pass_names::kMemoryPlan), 1);
  EXPECT_GT(runs(pass_names::kInterOpReconcile), 1);
  expect_one_sample_per_run();
  obs::MetricsRegistry::Global().Reset();
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

}  // namespace
}  // namespace t10
