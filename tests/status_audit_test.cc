// CHECK-audit regression suite: every user-reachable failure in the
// simulator and core layers must come back as a recoverable Status with the
// documented code, never a process abort. Each case here corresponds to an
// entry point a CLI flag, model file, or serving request can reach.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/program_executor.h"
#include "src/fault/fault_plan.h"
#include "src/ir/builder.h"
#include "src/ir/parser.h"
#include "src/sim/machine.h"
#include "src/sim/trace.h"
#include "src/util/status.h"

namespace t10 {
namespace {

TEST(StatusAuditTest, MachineAllocateOutOfMemoryIsResourceExhausted) {
  const ChipSpec chip = ChipSpec::ScaledIpu(4);
  Machine machine(chip);
  StatusOr<BufferHandle> huge = machine.Allocate(0, chip.core_memory_bytes + 1);
  ASSERT_FALSE(huge.ok());
  EXPECT_EQ(huge.status().code(), StatusCode::kResourceExhausted);
  // The failed allocation must not leak partial state: a sane request on the
  // same core still succeeds.
  StatusOr<BufferHandle> small = machine.Allocate(0, 64);
  EXPECT_TRUE(small.ok()) << small.status().ToString();
}

TEST(StatusAuditTest, MachineAllocateOnDownedCoreIsUnavailable) {
  const ChipSpec chip = ChipSpec::ScaledIpu(4);
  fault::FaultSpec spec;
  fault::FaultInjector injector(spec);
  injector.KillCore(2);
  Machine machine(chip);
  machine.AttachFaults(&injector);
  StatusOr<BufferHandle> dead = machine.Allocate(2, 64);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(machine.Allocate(1, 64).ok());  // Survivors keep working.
}

TEST(StatusAuditTest, TraceWriteToUnopenablePathIsInvalidArgument) {
  TraceWriter writer;
  writer.Add("op", "lane", 0.0, 1.0);
  const Status status = writer.WriteFile("/nonexistent-dir/trace.json");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StatusAuditTest, ModelParseFailuresAreInvalidArgument) {
  const std::vector<std::string> bad_models = {
      "not a model at all",
      "model m\nmatmul name=x m=abc k=2 n=2 a=a b=b c=c",
      "model m\nbogus_op name=x",
  };
  for (const std::string& text : bad_models) {
    StatusOr<Graph> parsed = TryParseModelText(text);
    ASSERT_FALSE(parsed.ok()) << text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(StatusAuditTest, FaultSpecParseFailuresAreInvalidArgument) {
  const std::vector<std::string> bad_specs = {
      "bogus=1",
      "corrupt=2.0",      // Rate out of range.
      "core_down=-1",     // Negative core.
      "link_down=3",      // Missing dst in the pair.
      "corrupt=notanum",
  };
  for (const std::string& text : bad_specs) {
    StatusOr<fault::FaultSpec> spec = fault::ParseFaultSpec(text);
    ASSERT_FALSE(spec.ok()) << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(StatusAuditTest, ProgramExecutorInputPreconditionsAreInvalidArgument) {
  Operator op = MatMulOp("mm", 2, 6, 3, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = 6;
  chip.cores_per_chip = 6;
  Machine machine(chip);
  ProgramExecutor executor(machine, *plan);

  // Wrong input arity.
  std::vector<HostTensor> one_input = {
      RandomHostTensor(TensorShape(op.axes(), op.inputs()[0]), 1)};
  StatusOr<HostTensor> arity = executor.Run(one_input);
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), StatusCode::kInvalidArgument);

  // Right arity, wrong shape on the second operand.
  std::vector<HostTensor> bad_shape = {
      RandomHostTensor(TensorShape(op.axes(), op.inputs()[0]), 1),
      RandomHostTensor(TensorShape(op.axes(), op.inputs()[0]), 2)};
  StatusOr<HostTensor> shape = executor.Run(bad_shape);
  ASSERT_FALSE(shape.ok());
  EXPECT_EQ(shape.status().code(), StatusCode::kInvalidArgument);

  // Right rank, short reduction axis: rejected, not read as zero padding.
  std::vector<HostTensor> short_k = {RandomHostTensor({2, 5}, 1),
                                     RandomHostTensor(TensorShape(op.axes(), op.inputs()[1]), 2)};
  StatusOr<HostTensor> same_rank = executor.Run(short_k);
  ASSERT_FALSE(same_rank.ok());
  EXPECT_EQ(same_rank.status().code(), StatusCode::kInvalidArgument);

  // Well-formed inputs still execute after the rejected calls.
  std::vector<HostTensor> good = {
      RandomHostTensor(TensorShape(op.axes(), op.inputs()[0]), 1),
      RandomHostTensor(TensorShape(op.axes(), op.inputs()[1]), 2)};
  StatusOr<HostTensor> ok = executor.Run(good);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace t10
