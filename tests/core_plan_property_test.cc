// Randomized property tests over the plan space: generate hundreds of valid
// (F_op, f_t) configurations for random operator shapes and check structural
// invariants of geometry, metrics, lowering, and — for a subsample — full
// numerical correctness through the byte-level executor. This is the
// "fuzzing" layer above the hand-picked cases in core_plan_test /
// core_program_test.

#include <gtest/gtest.h>

#include "src/core/device_program.h"
#include "src/core/plan.h"
#include "src/core/program_executor.h"
#include "src/ir/builder.h"
#include "src/util/math_util.h"
#include "src/util/rng.h"

namespace t10 {
namespace {

// Draws a random valid plan for `op`, or nullopt if the draw was invalid.
std::optional<ExecutionPlan> RandomPlan(const Operator& op, Rng& rng, std::int64_t max_cores) {
  std::vector<std::int64_t> fop;
  for (const Axis& axis : op.axes()) {
    const auto divisors = Divisors(axis.length);
    fop.push_back(divisors[rng.Index(divisors.size())]);
  }
  if (Product(fop) > max_cores) {
    return std::nullopt;
  }
  std::vector<std::vector<std::int64_t>> temporal;
  for (const TensorRef& input : op.inputs()) {
    std::vector<std::int64_t> ft(input.dims.size(), 1);
    // Randomly split one non-compound dim by a divisor of the sharing count.
    std::int64_t share = 1;
    for (std::size_t a = 0; a < op.axes().size(); ++a) {
      if (!Operator::TensorUsesAxis(input, static_cast<int>(a))) {
        share *= fop[a];
      }
    }
    if (share > 1 && rng.Uniform(0, 2) > 0) {
      const std::size_t d = rng.Index(input.dims.size());
      if (!input.dims[d].compound()) {
        std::int64_t sub = CeilDiv(op.axes()[input.dims[d].axis].length,
                                   fop[input.dims[d].axis]);
        if (input.dims[d].axis >= 0) {
          const auto divisors = Divisors(Gcd(share, sub));
          ft[d] = divisors[rng.Index(divisors.size())];
        }
      }
    }
    temporal.push_back(ft);
  }
  temporal.emplace_back(op.output().dims.size(), 1);
  return ExecutionPlan::Create(op, fop, temporal);
}

Operator RandomMatMul(Rng& rng, int id) {
  const std::int64_t m = rng.Uniform(1, 12);
  const std::int64_t k = rng.Uniform(1, 24);
  const std::int64_t n = rng.Uniform(1, 12);
  return MatMulOp("mm" + std::to_string(id), m, k, n, DataType::kF32, "A", "B", "C");
}

Operator RandomStridedConv(Rng& rng, int id) {
  return Conv2dOp("conv" + std::to_string(id), 1, rng.Uniform(1, 6), rng.Uniform(1, 6),
                  rng.Uniform(1, 8), rng.Uniform(1, 8), rng.Uniform(1, 3), rng.Uniform(1, 3),
                  DataType::kF16, "I", "W", "O", rng.Uniform(1, 4));
}

// Every plan's compute-shift steps keep what SplitFloorShape() says of its
// F_op: the steps' flops and bytes sum to at least the floor's, and none has
// a larger kernel volume. The search's dominated-F_op skip rests on it.
TEST(PlanPropertyTest, StepsCoverTheSplitFloor) {
  Rng rng(31);
  int accepted = 0;
  int rotated = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Operator op = trial % 2 == 0 ? RandomMatMul(rng, trial) : RandomStridedConv(rng, trial);
    const auto plan = RandomPlan(op, rng, 32);
    if (!plan.has_value()) {
      continue;
    }
    ++accepted;
    rotated += plan->total_steps() > 1 ? 1 : 0;
    FopBase base;
    ASSERT_TRUE(base.Reset(op, plan->fop()));
    const SubTaskShape floor = SplitFloorShape(base);
    const SubTaskShape step = plan->StepSubTask();
    const std::int64_t steps = plan->total_steps();
    SCOPED_TRACE(plan->DebugString());
    EXPECT_EQ(step.kind, floor.kind);
    EXPECT_LE(step.kernel_volume, floor.kernel_volume);
    EXPECT_GE(static_cast<double>(steps) * step.flops, floor.flops);
    EXPECT_GE(steps * (step.in_bytes + step.out_bytes), floor.in_bytes + floor.out_bytes);
  }
  EXPECT_GT(accepted, 500) << "random generator rejected too many draws";
  EXPECT_GT(rotated, 100) << "too few draws rotate anything";
}

TEST(PlanPropertyTest, MetricsInvariantsHoldForRandomPlans) {
  Rng rng(2024);
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = 32;
  chip.cores_per_chip = 32;
  GroundTruthTiming timing(chip);
  int accepted = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Operator op = RandomMatMul(rng, trial);
    auto plan = RandomPlan(op, rng, chip.num_cores);
    if (!plan.has_value()) {
      continue;
    }
    ++accepted;
    PlanMetrics metrics = plan->Evaluate(timing, chip);
    EXPECT_GT(metrics.compute_seconds, 0.0);
    EXPECT_GE(metrics.exchange_seconds, 0.0);
    EXPECT_GE(metrics.shift_bytes_per_core, 0);
    EXPECT_EQ(metrics.steps, plan->total_steps());
    EXPECT_GE(metrics.per_core_bytes, chip.shift_buffer_bytes);
    EXPECT_LE(metrics.padding_ratio, 1.0 + 1e-12);
    EXPECT_GT(metrics.padding_ratio, 0.0);
    // Steps decompose over the loops.
    std::int64_t steps = 1;
    for (const RotationLoop& loop : plan->loops()) {
      EXPECT_EQ(plan->axis_slices()[loop.axis] % loop.pace, 0);
      steps *= loop.steps;
    }
    EXPECT_EQ(steps, plan->total_steps());
    // Lowered traffic matches the metric accounting.
    DeviceProgram program = LowerPlan(*plan);
    std::int64_t rotation_bytes = 0;
    for (const ProgramStep& step : program.steps) {
      for (const ShiftSet& shift : step.shifts) {
        rotation_bytes += shift.slab_bytes;
      }
    }
    EXPECT_EQ(rotation_bytes + program.epilogue_rounds * program.epilogue_chunk_bytes,
              metrics.shift_bytes_per_core);
  }
  EXPECT_GT(accepted, 150) << "random generator rejected too many draws";
}

TEST(PlanPropertyTest, RandomPlansExecuteCorrectly) {
  Rng rng(777);
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = 16;
  chip.cores_per_chip = 16;
  Machine machine(chip);
  int executed = 0;
  for (int trial = 0; trial < 120 && executed < 40; ++trial) {
    Operator op = RandomMatMul(rng, trial);
    auto plan = RandomPlan(op, rng, 16);
    if (!plan.has_value()) {
      continue;
    }
    ++executed;
    std::vector<HostTensor> inputs = {
        RandomHostTensor(TensorShape(op.axes(), op.inputs()[0]), 1000 + trial),
        RandomHostTensor(TensorShape(op.axes(), op.inputs()[1]), 2000 + trial)};
    StatusOr<HostTensor> run = ProgramExecutor(machine, *plan).Run(inputs);
    ASSERT_TRUE(run.ok()) << plan->DebugString() << ": " << run.status().ToString();
    const HostTensor& got = *run;
    HostTensor want = ReferenceExecute(op, inputs);
    ASSERT_EQ(got.shape, want.shape);
    for (std::size_t i = 0; i < got.data.size(); ++i) {
      ASSERT_NEAR(got.data[i], want.data[i], 1e-3)
          << plan->DebugString() << " element " << i;
    }
  }
  EXPECT_GE(executed, 40);
}

TEST(PlanPropertyTest, MemoryMonotoneInReplication) {
  // Fixing F_op, growing f_t (less replication) must not increase memory.
  Operator op = MatMulOp("mm", 8, 16, 8, DataType::kF32, "A", "B", "C");
  std::int64_t previous_bytes = INT64_MAX;
  ChipSpec chip = ChipSpec::IpuMk2();
  for (std::int64_t ft : {1, 2, 4, 8}) {
    auto plan = ExecutionPlan::Create(op, {1, 8, 1}, {{1, ft}, {1, 1}, {1, 1}});
    ASSERT_TRUE(plan.has_value()) << ft;
    EXPECT_LE(plan->PerCoreBytes(chip), previous_bytes);
    previous_bytes = plan->PerCoreBytes(chip);
    // Replicas x ring size always equals the sharing count.
    const RTensorPlan& a = plan->tensors()[0];
    EXPECT_EQ(a.replicas * a.ring_size, a.share_cores);
  }
}

TEST(PlanPropertyTest, StepsMonotoneInTemporalSplit) {
  // More temporal partitions along k -> no fewer steps.
  Operator op = MatMulOp("mm", 4, 24, 8, DataType::kF32, "A", "B", "C");
  std::int64_t previous_steps = 0;
  for (std::int64_t ft : {2, 4, 8}) {
    auto plan = ExecutionPlan::Create(op, {1, 8, 1}, {{1, ft}, {1, 1}, {1, 1}});
    ASSERT_TRUE(plan.has_value()) << ft;
    EXPECT_GE(plan->total_steps(), previous_steps);
    previous_steps = plan->total_steps();
  }
}

}  // namespace
}  // namespace t10
