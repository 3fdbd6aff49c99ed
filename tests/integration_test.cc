// End-to-end integration: compile every model of the zoo on the full chip
// and check the global invariants that the paper's evaluation relies on —
// memory capacity respected, predicted-vs-measured agreement, T10 at least
// as good as the no-reconciliation policy, baselines well-formed on the same
// graphs.

#include <gtest/gtest.h>

#include "src/baselines/vgm.h"
#include "src/core/compiler.h"
#include "src/core/memory_planner.h"
#include "src/models/zoo.h"

namespace t10 {
namespace {

class ModelIntegration : public ::testing::TestWithParam<int> {
 protected:
  static const ModelInfo& Info() { return EvaluationModels()[GetParam() % 4]; }
};

TEST_P(ModelIntegration, CompilesWithinMemoryAndAgreesWithCostModel) {
  ChipSpec chip = ChipSpec::IpuMk2();
  Compiler compiler(chip);
  const ModelInfo& info = Info();
  Graph graph = info.build(info.batch_sizes.front());
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits) << info.name;
  ASSERT_EQ(static_cast<int>(model.ops.size()), graph.num_ops());
  double predicted_total = 0.0;
  for (const CompiledOp& op : model.ops) {
    EXPECT_LE(op.measured.per_core_bytes, chip.core_memory_bytes);
    EXPECT_GE(op.measured.cores_used, 1);
    EXPECT_LE(op.measured.cores_used, chip.num_cores);
    predicted_total += op.predicted.total_seconds();
  }
  // The fitted cost model and the ground truth agree within tens of percent
  // end-to-end (Fig 8 territory; convolutions carry the error).
  const double measured_total = model.TotalSeconds() - model.SetupSeconds();
  EXPECT_NEAR(predicted_total / measured_total, 1.0, 0.45) << info.name;
}

TEST_P(ModelIntegration, ReconciliationNeverHurts) {
  ChipSpec chip = ChipSpec::IpuMk2();
  const ModelInfo& info = Info();
  Graph graph = info.build(info.batch_sizes.front());
  CompileOptions with;
  CompileOptions without;
  without.inter_op_reconcile = false;
  CompiledModel reconciled = Compiler(chip, with).Compile(graph);
  CompiledModel greedy_off = Compiler(chip, without).Compile(graph);
  ASSERT_TRUE(reconciled.fits);
  ASSERT_TRUE(greedy_off.fits);
  EXPECT_LE(reconciled.TotalSeconds(), greedy_off.TotalSeconds() * 1.0001) << info.name;
}

TEST_P(ModelIntegration, MemoryPlanFits) {
  ChipSpec chip = ChipSpec::IpuMk2();
  Compiler compiler(chip);
  const ModelInfo& info = Info();
  Graph graph = info.build(info.batch_sizes.front());
  CompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits);
  MemoryPlan plan = PlanMemory(model, graph, chip);
  EXPECT_TRUE(plan.fits) << info.name << ": " << plan.DebugString();
  EXPECT_LT(plan.peak_bytes, plan.NaiveBytes()) << "liveness reuse had no effect";
}

TEST_P(ModelIntegration, BaselinesHandleSameGraph) {
  ChipSpec chip = ChipSpec::IpuMk2();
  const ModelInfo& info = Info();
  Graph graph = info.build(info.batch_sizes.front());
  for (VgmPlanner planner : {VgmPlanner::kRoller, VgmPlanner::kAnsor, VgmPlanner::kPopart}) {
    VgmModelResult result = VgmCompiler(chip, planner).Compile(graph);
    if (!result.fits) {
      continue;  // PopART may legitimately OOM.
    }
    EXPECT_EQ(static_cast<int>(result.per_op.size()), graph.num_ops());
    EXPECT_GT(result.TotalSeconds(), 0.0);
    EXPECT_GT(result.TransferSeconds(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, ModelIntegration, ::testing::Range(0, 4));

TEST(LlmIntegration, AllLayersCompileAtBatchOne) {
  ChipSpec chip = ChipSpec::IpuMk2();
  Compiler compiler(chip);
  for (const ModelInfo& info : LlmModels()) {
    Graph graph = info.build(1);
    CompiledModel model = compiler.Compile(graph);
    EXPECT_TRUE(model.fits) << info.name;
    if (model.fits) {
      // Weight-resident decode: idle memory dominated by weights.
      EXPECT_GT(model.idle_bytes_per_core, 0) << info.name;
    }
  }
}

}  // namespace
}  // namespace t10
