#include "src/verify/pass_checks.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pass/compilation_context.h"
#include "src/core/pass/plan_cache.h"
#include "src/verify/verifier.h"

namespace t10::verify {

VerifyResult CheckCostModelFit(const CompilationContext& ctx) {
  VerifyResult result;
  if (!ctx.resources->cost_model_ready()) {
    DiagnosticBuilder(result, "pass.cost_model.fit", ctx.graph->name())
        << "FitCostModel ran but no cost model is fitted";
    return result;
  }
  // Const access is deliberate: the model is ready, so this cannot re-fit.
  const FittedCostModel& model = ctx.resources->cost_model();
  for (int cls = 0; cls < kNumKernelClasses; ++cls) {
    const double r_squared = model.RSquared(static_cast<KernelClass>(cls));
    if (!std::isfinite(r_squared) || r_squared > 1.0 + 1e-9) {
      DiagnosticBuilder(result, "pass.cost_model.fit",
                        KernelClassName(static_cast<KernelClass>(cls)))
              .Hint("re-fit with more samples per class")
          << "regression R² is " << r_squared << ", outside [-inf, 1]";
    }
  }
  return result;
}

VerifyResult CheckSearchResults(const CompilationContext& ctx) {
  VerifyResult result;
  const Graph& graph = *ctx.graph;
  if (static_cast<int>(ctx.search_of_op.size()) != graph.num_ops()) {
    DiagnosticBuilder(result, "pass.search.coverage", graph.name())
        << "search indexed " << ctx.search_of_op.size() << " of " << graph.num_ops()
        << " operator(s)";
    return result;
  }
  const Verifier verifier(ctx.resources->chip());
  const PlanCache& cache = ctx.resources->plan_cache();
  // Sets are numbered in the order their signatures first appear: each set
  // is checked once, at its first operator, and every later operator of the
  // set must share its signature.
  std::vector<std::string> set_signatures;
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Operator& op = graph.op(i);
    const int set = ctx.search_of_op[static_cast<std::size_t>(i)];
    const int num_seen = static_cast<int>(set_signatures.size());
    std::string signature = OperatorSignature(op);
    if (set >= 0 && set < num_seen) {
      if (signature != set_signatures[static_cast<std::size_t>(set)]) {
        DiagnosticBuilder(result, "pass.search.coverage", op.name())
            << "shares Pareto set " << set << " with an operator of another signature";
      }
      continue;
    }
    if (set != num_seen || set >= static_cast<int>(ctx.searches.size())) {
      DiagnosticBuilder(result, "pass.search.coverage", op.name())
          << "points at Pareto set " << set << " where set " << num_seen << " of "
          << ctx.searches.size() << " is next";
      continue;
    }
    const IntraOpResult& search = ctx.searches[static_cast<std::size_t>(set)];
    // Cache consistency: the entry a warm compile would rebuild from must
    // exist and describe exactly the plan set this compile uses.
    const CachedPlanSet* entry = cache.Lookup(signature);
    set_signatures.push_back(std::move(signature));
    if (entry == nullptr) {
      DiagnosticBuilder(result, "pass.search.cache", op.name())
              .Hint("every searched signature must be inserted into the plan cache")
          << "no plan cache entry for this operator's signature";
    } else if (static_cast<std::size_t>(entry->num_plans()) != search.pareto.size()) {
      DiagnosticBuilder(result, "pass.search.cache", op.name())
          << "cache entry holds " << entry->num_plans() << " plan(s) but the search result has "
          << search.pareto.size();
    }
    for (std::size_t j = 0; j + 1 < search.pareto.size(); ++j) {
      const PlanMetrics& a = search.pareto[j].predicted;
      const PlanMetrics& b = search.pareto[j + 1].predicted;
      if (a.per_core_bytes > b.per_core_bytes || a.total_seconds() < b.total_seconds()) {
        DiagnosticBuilder(result, "pass.search.pareto-order", op.name())
            << "Pareto set not sorted memory-ascending/time-descending at index " << j;
        break;
      }
    }
    for (const PlanCandidate& candidate : search.pareto) {
      result.Merge(verifier.VerifyPlan(candidate.plan));
    }
  }
  if (set_signatures.size() != ctx.searches.size()) {
    DiagnosticBuilder(result, "pass.search.coverage", graph.name())
        << "search produced " << ctx.searches.size() << " Pareto set(s) for "
        << set_signatures.size() << " distinct signature(s)";
  }
  return result;
}

VerifyResult CheckReconcileSchedule(const CompilationContext& ctx) {
  VerifyResult result;
  if (!ctx.schedule.feasible) {
    return result;  // Infeasible schedules carry no option choices to check.
  }
  const Graph& graph = *ctx.graph;
  if (static_cast<int>(ctx.schedule.per_op.size()) != graph.num_ops()) {
    DiagnosticBuilder(result, "pass.reconcile.schedule", graph.name())
        << "schedule covers " << ctx.schedule.per_op.size() << " operator(s) of "
        << graph.num_ops();
    return result;
  }
  for (int i = 0; i < graph.num_ops(); ++i) {
    const OpSchedule& sched = ctx.schedule.per_op[static_cast<std::size_t>(i)];
    const int num_options = static_cast<int>(ctx.search(i).pareto.size());
    if (sched.idle_option < 0 || sched.idle_option >= num_options || sched.active_option < 0 ||
        sched.active_option >= num_options) {
      DiagnosticBuilder(result, "pass.reconcile.schedule", graph.op(i).name())
          << "schedule options (idle=" << sched.idle_option
          << ", active=" << sched.active_option << ") outside the operator's " << num_options
          << "-plan Pareto set";
    }
  }
  return result;
}

}  // namespace t10::verify
