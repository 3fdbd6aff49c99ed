#include "src/core/pass/memory_plan.h"

#include <algorithm>
#include <utility>

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

// Builds CompiledOps for every operator from the chosen schedule options.
void MaterializeOps(CompilationContext& ctx) {
  const Graph& graph = *ctx.graph;
  const ChipSpec& chip = ctx.resources->chip();
  const GroundTruthTiming& truth = ctx.resources->truth();
  CompiledModel& out = ctx.model;
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Operator& op = graph.op(i);
    const IntraOpResult& search = ctx.searches[static_cast<std::size_t>(i)];
    const OpSchedule& sched = ctx.schedule.per_op[static_cast<std::size_t>(i)];
    CompiledOp compiled;
    compiled.op_index = i;
    compiled.active_plan = search.pareto[static_cast<std::size_t>(sched.active_option)].plan;
    compiled.idle_plan = search.pareto[static_cast<std::size_t>(sched.idle_option)].plan;
    compiled.predicted = search.pareto[static_cast<std::size_t>(sched.active_option)].predicted;
    compiled.measured = compiled.active_plan.Evaluate(truth, chip);
    compiled.setup_seconds = sched.setup_seconds;
    compiled.setup_bytes =
        SetupFetchBytes(ctx.inter_ops[static_cast<std::size_t>(i)]
                            .options[static_cast<std::size_t>(sched.idle_option)],
                        ctx.inter_ops[static_cast<std::size_t>(i)]
                            .options[static_cast<std::size_t>(sched.active_option)]);
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

}  // namespace

PassResult MemoryPlanPass::Run(CompilationContext& ctx) {
  const ChipSpec& chip = ctx.resources->chip();
  ctx.model.ops.clear();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  {
    obs::Span span = obs::StartSpan(ctx.trace, "phase.materialize",
                                    &metrics.GetHistogram("compiler.phase.materialize.seconds"));
    MaterializeOps(ctx);
  }
  {
    obs::Span span = obs::StartSpan(ctx.trace, "phase.memory_plan",
                                    &metrics.GetHistogram("compiler.phase.memory_plan.seconds"));
    ctx.memory_plan = PlanMemory(ctx.model, *ctx.graph, chip);
  }
  ctx.model.memory_peak_bytes = ctx.memory_plan.peak_bytes;
  if (ctx.memory_plan.fits) {
    return PassResult::Continue();
  }
  // Shrink by at least twice the previous shrink so sub-granularity
  // overshoots (smaller than any plan-size delta) cannot stall the loop.
  const std::int64_t overshoot = ctx.memory_plan.peak_bytes - chip.core_memory_bytes;
  const std::int64_t shrink = std::max(overshoot, 2 * ctx.last_shrink);
  ctx.last_shrink = shrink;
  ctx.budget_bytes -= shrink;
  ++ctx.memory_retries;
  T10_LOG(Info) << ctx.graph->name() << ": memory plan overshoots by " << overshoot
                << "B, retrying with budget " << ctx.budget_bytes;
  if (ctx.memory_retries >= kMaxMemoryRetries || ctx.budget_bytes <= 0) {
    ctx.model.fits = false;
    ctx.model.ops.clear();
    return PassResult::Stop();
  }
  return PassResult::RetryFrom(pass_names::kInterOpReconcile);
}

verify::VerifyResult MemoryPlanPass::Verify(const CompilationContext& ctx) const {
  if (ctx.memory_plan.intervals.empty()) {
    return {};
  }
  return verify::Verifier(ctx.resources->chip()).VerifyMemoryPlan(ctx.memory_plan);
}

}  // namespace t10
