// Google-benchmark microbenchmarks of the compiler's hot paths: the
// cost-model fit and the plan-cache load a warm compile starts with, plan
// geometry derivation, plan cost evaluation, the search's F_op enumeration,
// one search candidate's filter and cost, the Pareto frontier over one
// search's candidates, intra-op search, the inter-op reconcile
// (Algorithm 1) and the memory_plan pass. These are the operations
// Fig 16/18/19's compile-time numbers are built from.
// BM_ProgramExecutorRun times the byte-level executor per operator, on the
// plans the search emits for them; BM_ProgramExecutorConstructAndRun adds
// the executor's construction (lowering and placement geometry).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "src/core/compiler.h"
#include "src/core/inter_op.h"
#include "src/core/pass/compilation_context.h"
#include "src/core/pass/fit_cost_model.h"
#include "src/core/pass/inter_op_reconcile.h"
#include "src/core/pass/intra_op_search.h"
#include "src/core/pass/memory_plan.h"
#include "src/core/pass/plan_cache.h"
#include "src/core/program_executor.h"
#include "src/core/search.h"
#include "src/fault/campaign.h"
#include "src/ir/builder.h"
#include "src/models/zoo.h"

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

// One search candidate, BenchPlan()'s: the filter (per-core bytes) and the
// cost, from its F_op's base plus its options' deltas, as the search costs a
// candidate.
void BM_CandidateEvaluate(benchmark::State& state) {
  ChipSpec chip = ChipSpec::IpuMk2();
  GroundTruthTiming timing(chip);
  const ExecutionPlan& plan = BenchPlan();
  FopCandidates candidates;
  if (!candidates.Reset(BenchOp(), plan.fop(), SearchConstraints{}, timing, chip)) {
    state.SkipWithError("searched F_op no longer passes the filters");
    return;
  }
  std::vector<std::size_t> choice(candidates.num_tensors(), 0);
  for (std::size_t t = 0; t < choice.size(); ++t) {
    const std::vector<std::int64_t>& want = plan.tensors()[t].temporal;
    while (choice[t] < candidates.num_options(t) &&
           !std::ranges::equal(candidates.temporal(t, choice[t]), want)) {
      ++choice[t];
    }
    if (choice[t] == candidates.num_options(t)) {
      state.SkipWithError("searched temporal factors are no longer an option");
      return;
    }
  }
  for (auto _ : state) {
    const bool passes = candidates.PerCoreBytes(choice) <= chip.core_memory_bytes;
    benchmark::DoNotOptimize(passes);
    PlanMetrics metrics = candidates.Metrics(choice);
    benchmark::DoNotOptimize(metrics);
  }
}
BENCHMARK(BM_CandidateEvaluate);

// The search's enumeration on BERT batch 1's first matmul on the IPU Mk2:
// every F_op ForEachSearchedFop() visits and its FopCandidates::Reset() (the
// F_op base and each temporal option's window bytes), with no choice
// filtered or costed.
void BM_FopEnumeration(benchmark::State& state) {
  const Graph graph = BuildBertLarge(1);
  const auto op = std::ranges::find_if(
      graph.ops(), [](const Operator& o) { return o.kind() == OpKind::kContraction; });
  const ChipSpec chip = ChipSpec::IpuMk2();
  GroundTruthTiming timing(chip);
  const SearchConstraints constraints;
  FopCandidates candidates;
  std::int64_t fops = 0;
  std::size_t options = 0;
  for (auto _ : state) {
    fops = 0;
    options = 0;
    ForEachSearchedFop(*op, chip, constraints, [&](std::span<const std::int64_t> fop) {
      ++fops;
      if (candidates.Reset(*op, fop, constraints, timing, chip)) {
        for (std::size_t t = 0; t < candidates.num_tensors(); ++t) {
          options += candidates.num_options(t);
        }
      }
      return true;
    });
    benchmark::DoNotOptimize(options);
  }
  state.SetItemsProcessed(state.iterations() * fops);
  state.SetLabel(op->name() + ": " + std::to_string(fops) + " F_ops, " +
                 std::to_string(options) + " options");
}
BENCHMARK(BM_FopEnumeration)->Unit(benchmark::kMicrosecond);

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

// The cost-model fit every Compiler runs once: 240 profiled samples per
// kernel class plus the shift model, on the IPU Mk2.
void BM_CostModelFit(benchmark::State& state) {
  const KernelGroundTruth truth(ChipSpec::IpuMk2());
  const int samples = CompileOptions{}.cost_model_samples;
  for (auto _ : state) {
    const FittedCostModel model = FittedCostModel::Fit(truth, samples);
    benchmark::DoNotOptimize(model.RSquared(KernelClass::kMatMul));
  }
}
BENCHMARK(BM_CostModelFit)->Unit(benchmark::kMicrosecond);

// A plan-cache directory holding the file a warm zoo compile reads: every
// evaluation model at its first batch size compiled once on the IPU Mk2
// (jobs = 4), and the fingerprint that names the file.
struct ZooPlanCache {
  std::string dir;
  std::uint64_t fingerprint = 0;
};

const ZooPlanCache& ZooCache() {
  static const ZooPlanCache* cache = [] {
    auto* zoo = new ZooPlanCache;
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "t10_bench_zoo_plan_cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    zoo->dir = dir.string();
    CompileOptions options;
    options.jobs = 4;
    options.plan_cache_dir = zoo->dir;
    for (const ModelInfo& info : EvaluationModels()) {
      Compiler compiler(ChipSpec::IpuMk2(), options);
      compiler.Compile(info.build(info.batch_sizes.front()));
    }
    CompilerResources resources(ChipSpec::IpuMk2(), options);
    zoo->fingerprint = PlanCache::Fingerprint(resources.chip(), options.constraints,
                                              resources.cost_model(), options.cost_model_samples);
    return zoo;
  }();
  return *cache;
}

// What a warm compile pays to open its plan cache: attaching the zoo's cache
// directory loads and checks every entry of its file.
void BM_PlanCacheAttach(benchmark::State& state) {
  const ZooPlanCache& zoo = ZooCache();
  int entries = 0;
  std::int64_t rejected = 0;
  for (auto _ : state) {
    PlanCache cache;
    if (!cache.AttachDir(zoo.dir, zoo.fingerprint).ok()) {
      state.SkipWithError("cannot attach the zoo's plan cache");
      return;
    }
    entries = cache.size();
    rejected = cache.rejected_on_load();
  }
  state.SetLabel(std::to_string(entries) + " entries, " + std::to_string(rejected) +
                 " rejected");
}
BENCHMARK(BM_PlanCacheAttach)->Unit(benchmark::kMicrosecond);

// BenchOp()'s candidate stream on the IPU Mk2: every candidate the search
// costs, in its order, with its predicted metrics and an empty plan (the
// frontier reads only the metrics).
const std::vector<PlanCandidate>& CandidateStream() {
  static const std::vector<PlanCandidate>* stream = [] {
    const ChipSpec chip = ChipSpec::IpuMk2();
    GroundTruthTiming timing(chip);
    const SearchConstraints constraints;
    auto* out = new std::vector<PlanCandidate>;
    FopCandidates candidates;
    ForEachSearchedFop(BenchOp(), chip, constraints, [&](std::span<const std::int64_t> fop) {
      if (!candidates.Reset(BenchOp(), fop, constraints, timing, chip)) {
        return true;
      }
      std::vector<std::size_t> choice(candidates.num_tensors(), 0);
      for (;;) {
        if (candidates.PerCoreBytes(choice) <= chip.core_memory_bytes) {
          out->push_back(PlanCandidate{ExecutionPlan(), candidates.Metrics(choice)});
        }
        std::size_t t = choice.size();
        while (t > 0 && ++choice[t - 1] == candidates.num_options(t - 1)) {
          choice[--t] = 0;
        }
        if (t == 0) {
          return true;
        }
      }
    });
    return out;
  }();
  return *stream;
}

// ParetoFrontier() over one search's candidate stream; copying the stream
// into the call is not timed.
void BM_FrontierInsert(benchmark::State& state) {
  const std::vector<PlanCandidate>& stream = CandidateStream();
  std::size_t frontier_size = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<PlanCandidate> input = stream;
    state.ResumeTiming();
    const std::vector<PlanCandidate> frontier = ParetoFrontier(std::move(input));
    benchmark::DoNotOptimize(frontier.data());
    frontier_size = frontier.size();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(stream.size()));
  state.SetLabel(std::to_string(stream.size()) + " candidates, " +
                 std::to_string(frontier_size) + " on the frontier");
}
BENCHMARK(BM_FrontierInsert)->Unit(benchmark::kMicrosecond);

// A compile of a model at batch 1 on the IPU Mk2 run through the inter-op
// reconcile: one Pareto set per operator signature, Algorithm 1's option sets
// and its schedule under the whole core memory.
struct Reconciled {
  Graph graph;
  CompilerResources resources{ChipSpec::IpuMk2(), CompileOptions{}};
  CompilationContext ctx;
  bool ok = true;

  explicit Reconciled(Graph model) : graph(std::move(model)) {
    ctx.graph = &graph;
    ctx.resources = &resources;
    ctx.model.model_name = graph.name();
    FitCostModelPass fit;
    IntraOpSearchPass search;
    InterOpReconcilePass reconcile;
    for (Pass* pass : {static_cast<Pass*>(&fit), static_cast<Pass*>(&search),
                       static_cast<Pass*>(&reconcile)}) {
      ok = ok && pass->Run(ctx).action == PassResult::Action::kContinue;
    }
  }
};

// Algorithm 1 on the operators of BERT (arg 0 = 0) or ViT (1) at batch 1,
// under the whole core memory (arg 1 = 0) or a binding budget (1): one byte
// below the whole-memory run's stable budget, the largest budget that
// changes its schedule, as memory_plan's reruns do.
void BM_ReconcileInterOp(benchmark::State& state) {
  const Reconciled model(state.range(0) == 0 ? BuildBertLarge(1) : BuildVitBase(1));
  if (!model.ok) {
    state.SkipWithError("the model does not compile through the reconcile");
    return;
  }
  const ChipSpec& chip = model.resources.chip();
  const std::int64_t budget =
      state.range(1) == 0 ? chip.core_memory_bytes : model.ctx.schedule.stable_budget - 1;
  std::size_t steps = 0;
  for (auto _ : state) {
    const InterOpSchedule schedule =
        ReconcileInterOp(model.ctx.option_sets, model.ctx.option_set_of_op, chip, budget);
    benchmark::DoNotOptimize(schedule.total_seconds);
    steps = schedule.trajectory.size();
  }
  state.SetLabel(model.graph.name() + ": " + std::to_string(model.ctx.option_set_of_op.size()) +
                 " ops, " + std::to_string(model.ctx.option_sets.size()) + " option sets, " +
                 std::to_string(steps) + " steps");
}
BENCHMARK(BM_ReconcileInterOp)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Unit(benchmark::kMicrosecond);

// The memory_plan pass on BERT at batch 1 after the reconcile: every
// operator materialized from its shared Pareto set, then the liveness plan
// (rerunning Algorithm 1 under a smaller budget while the plan overshoots).
// Each iteration starts from the reconcile's schedule.
void BM_MemoryPlanPass(benchmark::State& state) {
  Reconciled bert(BuildBertLarge(1));
  if (!bert.ok) {
    state.SkipWithError("BERT does not compile through the reconcile");
    return;
  }
  const InterOpSchedule schedule = bert.ctx.schedule;
  const CompiledModel model = bert.ctx.model;
  MemoryPlanPass memory_plan;
  for (auto _ : state) {
    state.PauseTiming();
    bert.ctx.schedule = schedule;
    bert.ctx.model = model;
    state.ResumeTiming();
    if (memory_plan.Run(bert.ctx).action != PassResult::Action::kContinue) {
      state.SkipWithError("BERT's memory plan does not fit");
      return;
    }
    benchmark::DoNotOptimize(bert.ctx.memory_plan.peak_bytes);
  }
  state.SetLabel(std::to_string(bert.ctx.model.ops.size()) + " ops, peak " +
                 std::to_string(bert.ctx.memory_plan.peak_bytes) + " B/core");
}
BENCHMARK(BM_MemoryPlanPass)->Unit(benchmark::kMicrosecond);

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

// One f32 operator per argument, at the shapes of a small served MLP layer:
// 0 = matmul, 1 = unary, 2 = conv (compound, strided input dims), 3 = the
// matmul of 0 again, run with a fixed plan whose activation rotates on two
// dims.
Operator ExecutorOp(std::int64_t index) {
  switch (index) {
    case 1:
      return ElementwiseOp("act", {16, 32}, DataType::kF32, "x", "y", /*cost=*/2.0);
    case 2:
      return Conv2dOp("conv", 1, 8, 8, 8, 8, 3, 3, DataType::kF32, "x", "w", "y",
                      /*stride=*/2);
    default:
      return MatMulOp("fc", 16, 32, 32, DataType::kF32, "x", "w", "y");
  }
}

// An executor benchmark argument on a 16-core chip: its operator, inputs and
// plan. Arguments 0-2 take the plan the serving runtime would pick from the
// search (fault::PickExecutablePlan); argument 3 splits n four ways and
// rotates x on both m and k, a 2x2 ring per n-slice.
class ExecutorCase {
 public:
  ExecutorCase(std::int64_t index, const ChipSpec& chip) : op_(ExecutorOp(index)) {
    if (index == 3) {
      fixed_ = ExecutionPlan::Create(op_, {1, 4, 1}, {{2, 2}, {1, 1}, {1, 1}});
      plan_ = fixed_.has_value() ? &*fixed_ : nullptr;
    } else {
      GroundTruthTiming timing(chip);
      search_ = SearchOperatorPlans(op_, chip, timing);
      plan_ = fault::PickExecutablePlan(search_, nullptr);
    }
    for (std::size_t i = 0; i < op_.inputs().size(); ++i) {
      inputs_.push_back(RandomHostTensor(TensorShape(op_.axes(), op_.inputs()[i]), 1 + i));
    }
  }
  ExecutorCase(const ExecutorCase&) = delete;
  ExecutorCase& operator=(const ExecutorCase&) = delete;

  const ExecutionPlan* plan() const { return plan_; }
  const std::vector<HostTensor>& inputs() const { return inputs_; }
  std::string Label() const {
    return op_.name() + " steps=" + std::to_string(plan_->total_steps());
  }

 private:
  const Operator op_;
  IntraOpResult search_;
  std::optional<ExecutionPlan> fixed_;
  const ExecutionPlan* plan_ = nullptr;
  std::vector<HostTensor> inputs_;
};

// Runs `executor` once; false (with the benchmark skipped) on error.
bool RunOnce(benchmark::State& state, ProgramExecutor& executor,
             const std::vector<HostTensor>& inputs) {
  StatusOr<HostTensor> out = executor.Run(inputs);
  if (!out.ok()) {
    state.SkipWithError(out.status().ToString().c_str());
    return false;
  }
  benchmark::DoNotOptimize(out->data.data());
  benchmark::ClobberMemory();
  return true;
}

// ProgramExecutor::Run per operator on a 16-core chip.
void BM_ProgramExecutorRun(benchmark::State& state) {
  const ChipSpec chip = ChipSpec::ScaledIpu(16);
  const ExecutorCase c(state.range(0), chip);
  if (c.plan() == nullptr) {
    state.SkipWithError("no executable plan");
    return;
  }
  Machine machine(chip);
  ProgramExecutor executor(machine, *c.plan());
  for (auto _ : state) {
    if (!RunOnce(state, executor, c.inputs())) {
      return;
    }
  }
  state.SetLabel(c.Label());
}
BENCHMARK(BM_ProgramExecutorRun)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

// ProgramExecutor construction (LowerPlan, PlanGeometry) plus one Run: the
// per-request cost when an executor is bound afresh for every request.
void BM_ProgramExecutorConstructAndRun(benchmark::State& state) {
  const ChipSpec chip = ChipSpec::ScaledIpu(16);
  const ExecutorCase c(state.range(0), chip);
  if (c.plan() == nullptr) {
    state.SkipWithError("no executable plan");
    return;
  }
  Machine machine(chip);
  for (auto _ : state) {
    ProgramExecutor executor(machine, *c.plan());
    if (!RunOnce(state, executor, c.inputs())) {
      return;
    }
  }
  state.SetLabel(c.Label());
}
BENCHMARK(BM_ProgramExecutorConstructAndRun)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace t10

BENCHMARK_MAIN();
