#include "src/core/pass/inter_op_reconcile.h"

#include <utility>
#include <vector>

#include "src/verify/pass_checks.h"

namespace t10 {
namespace {

// Reduces every operator's Pareto set to what Algorithm 1 needs: per-option
// execution time, active footprint and weight-window bytes.
std::vector<InterOpOperator> BuildInterOpOptions(const CompilationContext& ctx) {
  const Graph& graph = *ctx.graph;
  std::vector<InterOpOperator> inter_ops(static_cast<std::size_t>(graph.num_ops()));
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Operator& op = graph.op(i);
    InterOpOperator& io = inter_ops[static_cast<std::size_t>(i)];
    io.name = op.name();
    std::vector<int> weight_operands;
    for (std::size_t j = 0; j < op.inputs().size(); ++j) {
      if (graph.tensor(op.inputs()[j].name).is_weight) {
        weight_operands.push_back(static_cast<int>(j));
      }
    }
    const std::vector<PlanCandidate>& pareto = ctx.search(i).pareto;
    for (std::size_t j = 0; j < pareto.size(); ++j) {
      const PlanCandidate& candidate = pareto[j];
      OpPlanOption option;
      option.plan_index = static_cast<int>(j);
      option.exec_seconds = candidate.predicted.total_seconds();
      option.active_bytes = candidate.predicted.per_core_bytes;
      for (const int w : weight_operands) {
        option.weight_windows.push_back(candidate.plan.OperandWindowBytes(w));
        option.weight_bytes += option.weight_windows.back();
      }
      io.options.push_back(std::move(option));
    }
  }
  return inter_ops;
}

}  // namespace

bool ReconcileUnderBudget(CompilationContext& ctx, std::int64_t budget_bytes) {
  ctx.schedule = ReconcileInterOp(ctx.inter_ops, ctx.resources->chip(), budget_bytes,
                                  ctx.resources->options().inter_op_reconcile ? -1 : 1);
  ctx.model.fits = ctx.schedule.feasible;
  ctx.model.reconcile_trajectory = ctx.schedule.trajectory;
  ctx.model.idle_bytes_per_core = ctx.schedule.idle_bytes_per_core;
  if (!ctx.schedule.feasible) {
    ctx.model.ops.clear();
  }
  return ctx.schedule.feasible;
}

PassResult InterOpReconcilePass::Run(CompilationContext& ctx) {
  ctx.inter_ops = BuildInterOpOptions(ctx);
  return ReconcileUnderBudget(ctx, ctx.resources->chip().core_memory_bytes)
             ? PassResult::Continue()
             : PassResult::Stop();
}

verify::VerifyResult InterOpReconcilePass::Verify(const CompilationContext& ctx) const {
  return verify::CheckReconcileSchedule(ctx);
}

}  // namespace t10
