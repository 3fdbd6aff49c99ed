// Google-benchmark microbenchmarks of the compiler's hot paths: plan
// geometry derivation, plan cost evaluation, intra-op search, and the
// functional executor. These are the operations Fig 18/19's compile-time
// numbers are built from. BM_ProgramExecutorRun times the byte-level
// executor per operator, on the plans the search emits for them.

#include <benchmark/benchmark.h>

#include "src/core/compiler.h"
#include "src/core/functional.h"
#include "src/core/program_executor.h"
#include "src/core/search.h"
#include "src/fault/campaign.h"
#include "src/ir/builder.h"

namespace t10 {
namespace {

const Operator& BenchOp() {
  static const Operator* op =
      new Operator(MatMulOp("mm", 512, 1024, 1024, DataType::kF16, "A", "B", "C"));
  return *op;
}

// The fastest plan the search emits for BenchOp() on the IPU Mk2.
const ExecutionPlan& BenchPlan() {
  static const IntraOpResult* result = [] {
    ChipSpec chip = ChipSpec::IpuMk2();
    GroundTruthTiming timing(chip);
    return new IntraOpResult(SearchOperatorPlans(BenchOp(), chip, timing));
  }();
  return result->pareto.back().plan;
}

void BM_PlanCreate(benchmark::State& state) {
  const ExecutionPlan& searched = BenchPlan();
  std::vector<std::vector<std::int64_t>> temporal;
  for (const RTensorPlan& tp : searched.tensors()) {
    temporal.push_back(tp.temporal);
  }
  for (auto _ : state) {
    auto plan = ExecutionPlan::Create(BenchOp(), searched.fop(), temporal);
    if (!plan.has_value()) {
      state.SkipWithError("searched plan no longer re-creates");
      return;
    }
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanCreate);

void BM_PlanEvaluate(benchmark::State& state) {
  ChipSpec chip = ChipSpec::IpuMk2();
  GroundTruthTiming timing(chip);
  const ExecutionPlan& plan = BenchPlan();
  for (auto _ : state) {
    PlanMetrics metrics = plan.Evaluate(timing, chip);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_PlanEvaluate);

void BM_CostModelPredict(benchmark::State& state) {
  KernelGroundTruth truth(ChipSpec::IpuMk2());
  FittedCostModel model = FittedCostModel::Fit(truth, 120, 3);
  SubTaskShape shape;
  shape.kind = OpKind::kContraction;
  shape.flops = 2.0 * 64 * 64 * 64;
  shape.in_bytes = 2 * 64 * 64 * 2;
  shape.out_bytes = 64 * 64 * 2;
  shape.inner_length = 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.SubTaskSeconds(shape));
  }
}
BENCHMARK(BM_CostModelPredict);

void BM_IntraOpSearch(benchmark::State& state) {
  ChipSpec chip = ChipSpec::ScaledIpu(static_cast<int>(state.range(0)));
  GroundTruthTiming timing(chip);
  const Operator& op = BenchOp();
  for (auto _ : state) {
    IntraOpResult result = SearchOperatorPlans(op, chip, timing);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_IntraOpSearch)->Arg(368)->Arg(1472)->Unit(benchmark::kMillisecond);

void BM_FunctionalMatMul(benchmark::State& state) {
  Operator op = MatMulOp("mm", 8, 24, 6, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {4, 3, 1}, {{1, 3}, {2, 1}, {1, 1}});
  std::vector<HostTensor> inputs = {RandomHostTensor({8, 24}, 1),
                                    RandomHostTensor({24, 6}, 2)};
  for (auto _ : state) {
    HostTensor out = ExecutePlanFunctionally(*plan, inputs);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FunctionalMatMul)->Unit(benchmark::kMicrosecond);

// One f32 operator per argument, at the shapes of a small served MLP layer:
// 0 = matmul, 1 = unary, 2 = conv (compound, strided input dims).
Operator ExecutorOp(std::int64_t index) {
  switch (index) {
    case 0:
      return MatMulOp("fc", 16, 32, 32, DataType::kF32, "x", "w", "y");
    case 1:
      return ElementwiseOp("act", {16, 32}, DataType::kF32, "x", "y", /*cost=*/2.0);
    default:
      return Conv2dOp("conv", 1, 8, 8, 8, 8, 3, 3, DataType::kF32, "x", "w", "y",
                      /*stride=*/2);
  }
}

// ProgramExecutor::Run per operator on a 16-core chip, with the plan the
// serving runtime would pick from the search (fault::PickExecutablePlan).
void BM_ProgramExecutorRun(benchmark::State& state) {
  const ChipSpec chip = ChipSpec::ScaledIpu(16);
  GroundTruthTiming timing(chip);
  const Operator op = ExecutorOp(state.range(0));
  const IntraOpResult search = SearchOperatorPlans(op, chip, timing);
  const ExecutionPlan* plan = fault::PickExecutablePlan(search, nullptr);
  if (plan == nullptr) {
    state.SkipWithError("no executable plan");
    return;
  }
  std::vector<HostTensor> inputs;
  for (std::size_t i = 0; i < op.inputs().size(); ++i) {
    inputs.push_back(RandomHostTensor(TensorShape(op.axes(), op.inputs()[i]), 1 + i));
  }
  Machine machine(chip);
  ProgramExecutor executor(machine, *plan);
  for (auto _ : state) {
    StatusOr<HostTensor> out = executor.Run(inputs);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(out->data.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(op.name() + " steps=" + std::to_string(plan->total_steps()));
}
BENCHMARK(BM_ProgramExecutorRun)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace t10

BENCHMARK_MAIN();
