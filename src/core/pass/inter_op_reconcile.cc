#include "src/core/pass/inter_op_reconcile.h"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/verify/pass_checks.h"

namespace t10 {
namespace {

// Reduces the Pareto sets to what Algorithm 1 needs: per-option execution
// time, active footprint and weight-window bytes. Operators of one signature
// whose weights are the same operands share one option set.
void BuildOptionSets(CompilationContext& ctx) {
  const Graph& graph = *ctx.graph;
  ctx.option_sets.clear();
  ctx.option_set_of_op.assign(static_cast<std::size_t>(graph.num_ops()), -1);
  std::map<std::pair<int, std::vector<int>>, int> set_of_key;
  std::vector<int> weight_operands;
  std::vector<std::int64_t> windows;
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Operator& op = graph.op(i);
    weight_operands.clear();
    for (std::size_t j = 0; j < op.inputs().size(); ++j) {
      if (graph.tensor(op.inputs()[j].name).is_weight) {
        weight_operands.push_back(static_cast<int>(j));
      }
    }
    const auto [it, inserted] =
        set_of_key.try_emplace({ctx.search_of_op[static_cast<std::size_t>(i)], weight_operands},
                               static_cast<int>(ctx.option_sets.size()));
    ctx.option_set_of_op[static_cast<std::size_t>(i)] = it->second;
    if (!inserted) {
      continue;
    }
    OpOptionSet& set = ctx.option_sets.emplace_back(static_cast<int>(weight_operands.size()));
    for (const PlanCandidate& candidate : ctx.search(i).pareto) {
      windows.clear();
      for (const int w : weight_operands) {
        windows.push_back(candidate.plan.OperandWindowBytes(w));
      }
      set.Add(candidate.predicted.total_seconds(), candidate.predicted.per_core_bytes, windows);
    }
  }
}

}  // namespace

bool ReconcileUnderBudget(CompilationContext& ctx, std::int64_t budget_bytes) {
  ctx.schedule = ReconcileInterOp(ctx.option_sets, ctx.option_set_of_op, ctx.resources->chip(),
                                  budget_bytes,
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
  BuildOptionSets(ctx);
  return ReconcileUnderBudget(ctx, ctx.resources->chip().core_memory_bytes)
             ? PassResult::Continue()
             : PassResult::Stop();
}

verify::VerifyResult InterOpReconcilePass::Verify(const CompilationContext& ctx) const {
  return verify::CheckReconcileSchedule(ctx);
}

}  // namespace t10
