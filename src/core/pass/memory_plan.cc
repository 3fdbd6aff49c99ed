#include "src/core/pass/memory_plan.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/core/pass/inter_op_reconcile.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"
#include "src/util/math_util.h"
#include "src/verify/pass_checks.h"
#include "src/verify/verifier.h"

namespace t10 {
namespace {

// True if the producing plan's output layout equals the consuming plan's
// expectation for the same tensor (same spatial slicing, same windows, same
// replication) — in that case no inter-operator exchange is needed.
bool LayoutsMatch(const RTensorPlan& produced, const RTensorPlan& consumed) {
  return produced.spatial == consumed.spatial && produced.temporal == consumed.temporal &&
         produced.window == consumed.window && produced.replicas == consumed.replicas &&
         produced.share_cores == consumed.share_cores;
}

// All-to-all re-layout of one intermediate tensor across the chip (paper §5,
// "Inter-operator transition"): every core sends and receives its share.
double TransitionSeconds(std::int64_t tensor_bytes, const ChipSpec& chip) {
  const double per_core_bytes =
      static_cast<double>(tensor_bytes) / static_cast<double>(chip.num_cores);
  return chip.sync_latency_seconds + 2.0 * per_core_bytes / chip.EffectiveLinkBandwidth();
}

// Builds CompiledOps for every operator from the final schedule's options,
// binding the plans it copies from a shared Pareto set to their operator.
void MaterializeOps(CompilationContext& ctx) {
  const Graph& graph = *ctx.graph;
  const ChipSpec& chip = ctx.resources->chip();
  const GroundTruthTiming& truth = ctx.resources->truth();
  CompiledModel& out = ctx.model;
  // Operators that run the same plan of one Pareto set have the same
  // structure (BindTo checks it), so each (set, plan) is measured once.
  std::map<std::pair<int, int>, PlanMetrics> measured;
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Operator& op = graph.op(i);
    const IntraOpResult& search = ctx.search(i);
    const OpSchedule& sched = ctx.schedule.per_op[static_cast<std::size_t>(i)];
    CompiledOp compiled;
    compiled.op_index = i;
    compiled.active_plan = search.pareto[static_cast<std::size_t>(sched.active_option)].plan;
    compiled.active_plan.BindTo(op);
    compiled.idle_plan = search.pareto[static_cast<std::size_t>(sched.idle_option)].plan;
    compiled.idle_plan.BindTo(op);
    compiled.predicted = search.pareto[static_cast<std::size_t>(sched.active_option)].predicted;
    const auto [it, inserted] =
        measured.try_emplace({ctx.search_of_op[static_cast<std::size_t>(i)], sched.active_option});
    if (inserted) {
      it->second = compiled.active_plan.Evaluate(truth, chip);
    }
    compiled.measured = it->second;
    compiled.setup_seconds = sched.setup_seconds;
    compiled.setup_bytes =
        ctx.option_sets[static_cast<std::size_t>(ctx.option_set_of_op[static_cast<std::size_t>(i)])]
            .SetupFetchBytes(sched.idle_option, sched.active_option);
    compiled.complete_space_log10 = search.complete_space_log10;
    compiled.filtered_count = search.filtered_count;
    compiled.pareto_count = static_cast<std::int64_t>(search.pareto.size());

    // Layout transitions for on-chip intermediate inputs.
    for (std::size_t j = 0; j < op.inputs().size(); ++j) {
      const TensorInfo& info = graph.tensor(op.inputs()[j].name);
      if (info.producer < 0) {
        continue;  // Weights and graph inputs: no on-chip relayout.
      }
      const CompiledOp& producer = out.ops[static_cast<std::size_t>(info.producer)];
      const RTensorPlan& produced = producer.active_plan.output_plan();
      const RTensorPlan& consumed = compiled.active_plan.tensors()[j];
      if (!LayoutsMatch(produced, consumed)) {
        compiled.transition_seconds += TransitionSeconds(info.bytes, chip);
        // Each core sends and receives its share of the tensor.
        compiled.transition_bytes += 2 * CeilDiv(info.bytes, chip.num_cores);
      }
    }
    out.ops.push_back(std::move(compiled));
  }
}

// Plans the memory of the current schedule. Between reconcile reruns nothing
// is materialized: the planner reads window bytes straight from the shared
// Pareto sets.
void PlanSchedule(CompilationContext& ctx) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Span span = obs::StartSpan(ctx.trace, "phase.memory_plan",
                                  &metrics.GetHistogram("compiler.phase.memory_plan.seconds"));
  std::vector<OpPlans> plans;
  plans.reserve(static_cast<std::size_t>(ctx.graph->num_ops()));
  for (int i = 0; i < ctx.graph->num_ops(); ++i) {
    const std::vector<PlanCandidate>& pareto = ctx.search(i).pareto;
    const OpSchedule& sched = ctx.schedule.per_op[static_cast<std::size_t>(i)];
    plans.push_back(OpPlans{&pareto[static_cast<std::size_t>(sched.active_option)].plan,
                            &pareto[static_cast<std::size_t>(sched.idle_option)].plan});
  }
  ctx.memory_plan = PlanMemory(plans, *ctx.graph, ctx.resources->chip());
  ctx.model.memory_peak_bytes = ctx.memory_plan.peak_bytes;
}

// The largest charge Algorithm 1 put on the operators at the peak: the peak
// operator and the producer and consumers of every activation live there.
std::int64_t PeakCharge(const CompilationContext& ctx) {
  const Graph& graph = *ctx.graph;
  const int peak_op = ctx.memory_plan.peak_op;
  auto charge = [&](int op) {
    return ctx.schedule.per_op[static_cast<std::size_t>(op)].charged_bytes;
  };
  std::int64_t largest = charge(peak_op);
  for (const MemoryInterval& interval : ctx.memory_plan.intervals) {
    if (interval.persistent || interval.first_op > peak_op || interval.last_op < peak_op ||
        !graph.HasTensor(interval.label)) {
      continue;
    }
    const TensorInfo& info = graph.tensor(interval.label);
    if (info.producer >= 0) {
      largest = std::max(largest, charge(info.producer));
    }
    for (const int consumer : info.consumers) {
      largest = std::max(largest, charge(consumer));
    }
  }
  return largest;
}

}  // namespace

PassResult MemoryPlanPass::Run(CompilationContext& ctx) {
  const std::int64_t capacity = ctx.resources->chip().core_memory_bytes;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Histogram& reconcile_seconds = metrics.GetHistogram("compiler.phase.reconcile.seconds");
  std::int64_t budget = capacity;  // The budget InterOpReconcile ran under.
  std::int64_t previous_peak = -1;
  PlanSchedule(ctx);
  while (!ctx.memory_plan.fits) {
    // The next budget, from the bounds the header lists.
    const std::int64_t peak = ctx.memory_plan.peak_bytes;
    budget = std::min(budget - (peak - capacity), ctx.schedule.stable_budget - 1);
    if (peak == previous_peak) {
      budget = std::min(budget, PeakCharge(ctx) - 1);
    }
    previous_peak = peak;
    T10_LOG(Info) << ctx.graph->name() << ": memory plan overshoots by " << peak - capacity
                  << "B, retrying with budget " << budget;
    {
      obs::Span span = obs::StartSpan(ctx.trace, "phase.reconcile", &reconcile_seconds);
      if (!ReconcileUnderBudget(ctx, budget)) {
        return PassResult::Stop();
      }
    }
    PlanSchedule(ctx);
  }
  // The schedule is final: build its CompiledOps once.
  obs::Span span = obs::StartSpan(ctx.trace, "phase.materialize",
                                  &metrics.GetHistogram("compiler.phase.materialize.seconds"));
  ctx.model.ops.clear();
  MaterializeOps(ctx);
  return PassResult::Continue();
}

verify::VerifyResult MemoryPlanPass::Verify(const CompilationContext& ctx) const {
  verify::VerifyResult result = verify::CheckReconcileSchedule(ctx);
  if (!ctx.memory_plan.intervals.empty()) {
    result.Merge(verify::Verifier(ctx.resources->chip()).VerifyMemoryPlan(ctx.memory_plan));
  }
  return result;
}

}  // namespace t10
