#include "src/core/plan.h"

#include <gtest/gtest.h>

#include "src/ir/builder.h"

namespace t10 {
namespace {

ChipSpec TestChip() {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = 16;
  chip.cores_per_chip = 16;
  return chip;
}

// Paper Figure 7: C[m,n] += A[m,k] * B[k,n] with M=2, K=6, N=3 partitioned
// into a 2x3 grid (F_op = 2 on m, 3 on n, 1 on k), A temporally split 3-way
// along k, B 2-way along k.
TEST(ExecutionPlanTest, PaperFigure7Geometry) {
  Operator op = MatMulOp("mm", 2, 6, 3, DataType::kF16, "A", "B", "C");
  // Axes order is {m, n, k}.
  auto plan = ExecutionPlan::Create(op, {2, 3, 1},
                                    {{1, 3},   // A[m,k]: f_t = [1,3].
                                     {2, 1},   // B[k,n]: f_t = [2,1].
                                     {1, 1}}); // C[m,n]: outputs never rotate.
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cores_used(), 6);
  EXPECT_DOUBLE_EQ(plan->padding_ratio(), 1.0);

  const RTensorPlan& a = plan->tensors()[0];
  EXPECT_EQ(a.share_cores, 3);  // Shared along n.
  EXPECT_EQ(a.ring_size, 3);
  EXPECT_EQ(a.replicas, 1);
  EXPECT_EQ(a.sub_shape, (std::vector<std::int64_t>{1, 6}));
  EXPECT_EQ(a.window, (std::vector<std::int64_t>{1, 2}));

  const RTensorPlan& b = plan->tensors()[1];
  EXPECT_EQ(b.share_cores, 2);  // Shared along m.
  EXPECT_EQ(b.ring_size, 2);
  EXPECT_EQ(b.window, (std::vector<std::int64_t>{3, 1}));

  // Paper: rp on k = min(2, 3) = 2, so the sub-operator takes 6/2 = 3 steps.
  ASSERT_EQ(plan->loops().size(), 1u);
  EXPECT_EQ(plan->loops()[0].axis, op.FindAxis("k"));
  EXPECT_EQ(plan->loops()[0].pace, 2);
  EXPECT_EQ(plan->loops()[0].steps, 3);
  EXPECT_EQ(plan->total_steps(), 3);
  EXPECT_EQ(plan->reduce_group(), 1);

  // Per-step sub-task: m=1, n=1, k=2 -> 4 flops.
  SubTaskShape task = plan->StepSubTask();
  EXPECT_DOUBLE_EQ(task.flops, 2.0 * 1 * 1 * 2);
}

// Paper Figure 3(b): partition along m only; the weight is fully replicated,
// one step, no communication.
TEST(ExecutionPlanTest, ReplicatedWeightPlanHasNoRotation) {
  Operator op = MatMulOp("mm", 4, 8, 8, DataType::kF16, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {2, 1, 1}, {{1, 1}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->cores_used(), 2);
  EXPECT_EQ(plan->total_steps(), 1);
  EXPECT_TRUE(plan->loops().empty());
  const RTensorPlan& b = plan->tensors()[1];
  EXPECT_EQ(b.share_cores, 2);
  EXPECT_EQ(b.replicas, 2);  // One full copy per core.
  EXPECT_EQ(b.window_bytes, 8 * 8 * 2);
}

// Paper Figure 3(c): additionally split the weight along n; two steps, half
// the weight memory per core.
TEST(ExecutionPlanTest, SplitWeightPlanTradesMemoryForSteps) {
  Operator op = MatMulOp("mm", 4, 8, 8, DataType::kF16, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {2, 1, 1}, {{1, 1}, {1, 2}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  const RTensorPlan& b = plan->tensors()[1];
  EXPECT_EQ(b.ring_size, 2);
  EXPECT_EQ(b.replicas, 1);
  EXPECT_EQ(b.window_bytes, 8 * 4 * 2);  // Half of the 8x8 weight.
  EXPECT_EQ(plan->total_steps(), 2);     // n rotates: 8 / 4.
}

TEST(ExecutionPlanTest, SpatialReductionCreatesReduceGroup) {
  Operator op = MatMulOp("mm", 4, 32, 4, DataType::kF16, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {1, 1, 4}, {{1, 1}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->reduce_group(), 4);
  // Output shared by the 4 k-slices.
  EXPECT_EQ(plan->output_plan().share_cores, 4);
}

TEST(ExecutionPlanTest, PaddingRatioReflectsCeilDiv) {
  Operator op = MatMulOp("mm", 10, 8, 8, DataType::kF16, "A", "B", "C");
  // m=10 split 3 ways -> slices of 4, padded 12: ratio 10/12.
  auto plan = ExecutionPlan::Create(op, {3, 1, 1}, {{1, 1}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_NEAR(plan->padding_ratio(), 10.0 / 12.0, 1e-12);
  EXPECT_EQ(plan->axis_slices()[0], 4);
}

TEST(ExecutionPlanTest, InvalidConfigsReturnNullopt) {
  Operator op = MatMulOp("mm", 4, 6, 4, DataType::kF16, "A", "B", "C");
  // f_t = 4 does not divide P_A = 2 (n split 2-way).
  EXPECT_FALSE(ExecutionPlan::Create(op, {1, 2, 1}, {{1, 4}, {1, 1}, {1, 1}}).has_value());
  // f_t = 4 does not tile k = 6.
  EXPECT_FALSE(ExecutionPlan::Create(op, {1, 4, 1}, {{1, 4}, {1, 1}, {1, 1}}).has_value());
  // Output temporal split is rejected.
  EXPECT_FALSE(ExecutionPlan::Create(op, {2, 2, 1}, {{1, 1}, {1, 1}, {2, 1}}).has_value());
  // F_op beyond axis length is rejected.
  EXPECT_FALSE(ExecutionPlan::Create(op, {5, 1, 1}, {{1, 1}, {1, 1}, {1, 1}}).has_value());
  // Zero factor is rejected.
  EXPECT_FALSE(ExecutionPlan::Create(op, {0, 1, 1}, {{1, 1}, {1, 1}, {1, 1}}).has_value());
}

TEST(ExecutionPlanTest, ConvCompoundDimsGetHalo) {
  Operator op = Conv2dOp("conv", 1, 4, 8, 8, 8, 3, 3, DataType::kF16, "I", "W", "O");
  std::vector<std::int64_t> fop(op.axes().size(), 1);
  fop[static_cast<std::size_t>(op.FindAxis("h"))] = 2;
  std::vector<std::vector<std::int64_t>> ft = {{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}};
  auto plan = ExecutionPlan::Create(op, fop, ft);
  ASSERT_TRUE(plan.has_value());
  const RTensorPlan& input = plan->tensors()[0];
  // Input h+kh dim: slice h=4 plus kernel halo 2 -> 6; w stays 8+3-1=10.
  EXPECT_EQ(input.sub_shape, (std::vector<std::int64_t>{1, 4, 6, 10}));
  // Temporal split of a compound dim is rejected.
  std::vector<std::vector<std::int64_t>> bad = {{1, 1, 2, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}};
  // Make the split plausible by sharing the input (partition f).
  fop[static_cast<std::size_t>(op.FindAxis("f"))] = 2;
  EXPECT_FALSE(ExecutionPlan::Create(op, fop, bad).has_value());
}

// O[h] += I[c, 4h + kh] * W[h]: splitting c over 4 cores shares W, which
// rotates along h, so the steps split the strided dim 4h + kh. Each step's
// slab then spans fewer gap elements in total than the unsplit slab, and the
// floor counts only the elements the sub-task touches.
TEST(ExecutionPlanTest, SplitFloorShapeCountsTouchedElementsOfStridedDims) {
  const Operator op("strided", OpKind::kContraction,
                    {{"h", 16, false}, {"c", 4, true}, {"kh", 1, true}},
                    {TensorRef{"I", DataType::kF16, {DimRef{1}, DimRef{0, 2, 4}}},
                     TensorRef{"W", DataType::kF16, {DimRef{0}}}},
                    TensorRef{"O", DataType::kF16, {DimRef{0}}});
  const std::vector<std::int64_t> fop = {1, 4, 1};
  const auto unsplit = ExecutionPlan::Create(op, fop, {{1, 1}, {1}, {1}});
  const auto split = ExecutionPlan::Create(op, fop, {{1, 1}, {4}, {1}});
  ASSERT_TRUE(unsplit.has_value());
  ASSERT_TRUE(split.has_value());
  ASSERT_EQ(split->total_steps(), 4);
  auto total_bytes = [](const ExecutionPlan& plan) {
    const SubTaskShape step = plan.StepSubTask();
    return plan.total_steps() * (step.in_bytes + step.out_bytes);
  };
  // I spans 4 * 15 + 1 = 61 elements unsplit, 4 * (4 * 3 + 1) = 52 in steps.
  EXPECT_EQ(total_bytes(*unsplit), 2 * (61 + 16 + 16));
  EXPECT_EQ(total_bytes(*split), 2 * (52 + 16 + 16));
  FopBase base;
  ASSERT_TRUE(base.Reset(op, fop));
  const SubTaskShape floor = SplitFloorShape(base);
  EXPECT_EQ(floor.in_bytes + floor.out_bytes, 2 * (16 + 16 + 16));
  EXPECT_EQ(floor.flops, unsplit->StepSubTask().flops);
}

TEST(ExecutionPlanTest, EvaluateAccountsComputeAndExchange) {
  ChipSpec chip = TestChip();
  GroundTruthTiming timing(chip);
  Operator op = MatMulOp("mm", 2, 6, 3, DataType::kF16, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  PlanMetrics metrics = plan->Evaluate(timing, chip);
  EXPECT_EQ(metrics.steps, 3);
  EXPECT_GT(metrics.compute_seconds, 0.0);
  EXPECT_GT(metrics.exchange_seconds, 0.0);
  EXPECT_DOUBLE_EQ(metrics.epilogue_seconds, 0.0);
  // Per step, A ships a [1,2] f16 slab (4B) and B a [2,1] slab (4B); three
  // steps each.
  EXPECT_EQ(metrics.shift_bytes_per_core, 3 * 4 + 3 * 4);
  EXPECT_EQ(metrics.per_core_bytes,
            chip.shift_buffer_bytes + (1 * 2 + 3 * 1 + 1 * 1) * 2);
}

TEST(ExecutionPlanTest, EvaluateAddsEpilogueForReduceGroup) {
  ChipSpec chip = TestChip();
  GroundTruthTiming timing(chip);
  Operator op = MatMulOp("mm", 4, 32, 4, DataType::kF16, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {1, 1, 4}, {{1, 1}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  PlanMetrics metrics = plan->Evaluate(timing, chip);
  EXPECT_GT(metrics.epilogue_seconds, 0.0);
  EXPECT_GT(metrics.shift_bytes_per_core, 0);
}

// Memory/time trade-off property (the crux of Fig 17): replicating a shared
// tensor must never be slower, and splitting it must never use more memory.
TEST(ExecutionPlanTest, TemporalSplitIsMemoryCheaperAndSlower) {
  ChipSpec chip = TestChip();
  GroundTruthTiming timing(chip);
  Operator op = MatMulOp("mm", 8, 64, 64, DataType::kF16, "A", "B", "C");
  auto replicated = ExecutionPlan::Create(op, {8, 1, 1}, {{1, 1}, {1, 1}, {1, 1}});
  auto split = ExecutionPlan::Create(op, {8, 1, 1}, {{1, 1}, {1, 8}, {1, 1}});
  ASSERT_TRUE(replicated.has_value());
  ASSERT_TRUE(split.has_value());
  PlanMetrics fat = replicated->Evaluate(timing, chip);
  PlanMetrics thin = split->Evaluate(timing, chip);
  EXPECT_LT(thin.per_core_bytes, fat.per_core_bytes);
  EXPECT_GT(thin.exchange_seconds, fat.exchange_seconds);
  EXPECT_GE(thin.total_seconds(), fat.total_seconds());
}

TEST(ExecutionPlanTest, LoopOrderPutsSmallerTensorInner) {
  // A (large) rotates on k, B (small) rotates on n: B's axis should be inner.
  Operator op = MatMulOp("mm", 4, 64, 16, DataType::kF16, "A", "B", "C");
  // F_op: m=4, n=1, k=1. P_A = 1 (A uses m,k; missing n has factor 1)...
  // Use m split so B is shared, and n split so A is shared.
  auto plan = ExecutionPlan::Create(op, {2, 2, 1},
                                    {{1, 2},   // A rotates along k (ring from n).
                                     {1, 2},   // B rotates along n (ring from m).
                                     {1, 1}});
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->loops().size(), 2u);
  // A's sub-tensor is 2x64 f16 = 256B; B's is 64x8 f16 = 1024B. The larger
  // tensor (B, rotating on n) goes outer; the smaller (A, on k) goes inner.
  EXPECT_EQ(plan->loops().back().axis, op.FindAxis("k"));
}

// Rebuild re-derives a plan in place, reusing its storage: each Rebuild
// must leave nothing of the previous configuration behind (vectors shrink,
// loops reorder, a failed Rebuild in between is harmless), so the result
// equals a fresh Create of the same configuration, down to its cost.
TEST(ExecutionPlanTest, RebuildInPlaceMatchesCreate) {
  const ChipSpec chip = TestChip();
  const GroundTruthTiming timing(chip);
  const Operator mm = MatMulOp("mm", 4, 64, 16, DataType::kF16, "A", "B", "C");
  const Operator conv = Conv2dOp("conv", 1, 4, 8, 8, 8, 3, 3, DataType::kF16, "I", "W", "O");
  std::vector<std::int64_t> conv_fop(conv.axes().size(), 1);
  conv_fop[static_cast<std::size_t>(conv.FindAxis("h"))] = 2;
  conv_fop[static_cast<std::size_t>(conv.FindAxis("f"))] = 2;
  struct Config {
    const Operator* op;
    std::vector<std::int64_t> fop;
    std::vector<std::vector<std::int64_t>> ft;
  };
  const std::vector<Config> configs = {
      {&mm, {2, 2, 1}, {{1, 2}, {1, 2}, {1, 1}}},  // Two rotation loops.
      {&conv, conv_fop, {{1, 2, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}}},
      {&mm, {2, 2, 1}, {{1, 2}, {1, 1}, {2, 1}}},  // Invalid: the output rotates.
      {&mm, {1, 1, 4}, {{1, 1}, {1, 1}, {1, 1}}},  // Reduce group, no rotation.
      {&mm, {2, 2, 1}, {{1, 2}, {2, 1}, {1, 1}}},
  };
  ExecutionPlan scratch;
  for (const Config& c : configs) {
    const std::optional<ExecutionPlan> fresh = ExecutionPlan::Create(*c.op, c.fop, c.ft);
    ASSERT_EQ(scratch.Rebuild(*c.op, c.fop, c.ft), fresh.has_value());
    if (!fresh.has_value()) {
      continue;
    }
    SCOPED_TRACE(fresh->DebugString());
    EXPECT_EQ(scratch.DebugString(), fresh->DebugString());
    EXPECT_EQ(scratch.axis_slices(), fresh->axis_slices());
    ASSERT_EQ(scratch.tensors().size(), fresh->tensors().size());
    for (std::size_t t = 0; t < fresh->tensors().size(); ++t) {
      const RTensorPlan& got = scratch.tensors()[t];
      const RTensorPlan& want = fresh->tensors()[t];
      EXPECT_EQ(got.spatial, want.spatial);
      EXPECT_EQ(got.temporal, want.temporal);
      EXPECT_EQ(got.sub_shape, want.sub_shape);
      EXPECT_EQ(got.window, want.window);
      EXPECT_EQ(got.rotating_dims, want.rotating_dims);
      EXPECT_EQ(got.sub_bytes, want.sub_bytes);
    }
    ASSERT_EQ(scratch.loops().size(), fresh->loops().size());
    for (std::size_t l = 0; l < fresh->loops().size(); ++l) {
      EXPECT_EQ(scratch.loops()[l].axis, fresh->loops()[l].axis);
      EXPECT_EQ(scratch.loops()[l].pace, fresh->loops()[l].pace);
      EXPECT_EQ(scratch.loops()[l].steps, fresh->loops()[l].steps);
    }
    const PlanMetrics got = scratch.Evaluate(timing, chip);
    const PlanMetrics want = fresh->Evaluate(timing, chip);
    EXPECT_EQ(got.total_seconds(), want.total_seconds());
    EXPECT_EQ(got.per_core_bytes, want.per_core_bytes);
    EXPECT_EQ(got.shift_bytes_per_core, want.shift_bytes_per_core);
  }
}

// One Pareto set serves every operator of a signature: a copy of its plan
// binds to another operator of the same shape and costs exactly the same.
TEST(ExecutionPlanTest, BindToMovesACopyToAnEqualOperator) {
  const ChipSpec chip = TestChip();
  const GroundTruthTiming timing(chip);
  const Operator first = MatMulOp("fc0", 16, 64, 32, DataType::kF16, "x", "w0", "h0");
  const Operator second = MatMulOp("fc1", 16, 64, 32, DataType::kF16, "h0", "w1", "h1");
  const auto plan = ExecutionPlan::Create(first, {2, 2, 1}, {{1, 2}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  ExecutionPlan copy = *plan;
  copy.BindTo(second);
  EXPECT_EQ(&copy.op(), &second);
  EXPECT_EQ(&plan->op(), &first);
  const PlanMetrics a = plan->Evaluate(timing, chip);
  const PlanMetrics b = copy.Evaluate(timing, chip);
  EXPECT_EQ(a.total_seconds(), b.total_seconds());
  EXPECT_EQ(a.per_core_bytes, b.per_core_bytes);
  EXPECT_EQ(a.shift_bytes_per_core, b.shift_bytes_per_core);
}

TEST(ExecutionPlanDeathTest, BindToAMismatchedOperatorFails) {
  const Operator mm = MatMulOp("mm", 16, 64, 32, DataType::kF16, "A", "B", "C");
  const auto mm_plan = ExecutionPlan::Create(mm, {2, 2, 1}, {{1, 2}, {1, 1}, {1, 1}});
  ASSERT_TRUE(mm_plan.has_value());
  // An axis length differs.
  const Operator wider = MatMulOp("wider", 16, 64, 64, DataType::kF16, "A", "B", "C");
  EXPECT_DEATH(ExecutionPlan(*mm_plan).BindTo(wider), "cannot bind to wider");

  // An axis role differs: a row sum reduces the axis an elementwise op maps.
  const Operator relu = ElementwiseOp("relu", {16, 64}, DataType::kF16, "x", "y");
  const Operator sum = ReduceOp("sum", {16, 64}, DataType::kF16, "x", "y");
  const auto relu_plan = ExecutionPlan::Create(relu, {2, 2}, {{1, 1}, {1, 1}});
  ASSERT_TRUE(relu_plan.has_value());
  EXPECT_DEATH(ExecutionPlan(*relu_plan).BindTo(sum), "cannot bind to sum");

  // Equal axes, but the input's dim map has another stride.
  const Operator conv = Conv2dOp("conv", 1, 4, 8, 8, 8, 3, 3, DataType::kF16, "I", "W", "O");
  const Operator strided =
      Conv2dOp("strided", 1, 4, 8, 8, 8, 3, 3, DataType::kF16, "I", "W", "O", /*stride=*/2);
  ASSERT_EQ(conv.axes().size(), strided.axes().size());
  const auto conv_plan =
      ExecutionPlan::Create(conv, std::vector<std::int64_t>(conv.axes().size(), 1),
                            {{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}});
  ASSERT_TRUE(conv_plan.has_value());
  EXPECT_DEATH(ExecutionPlan(*conv_plan).BindTo(strided), "cannot bind to strided");
}

}  // namespace
}  // namespace t10
