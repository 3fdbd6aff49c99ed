// Pass 4: plan per-core memory and materialize the schedule (paper §4.4).
//
// Runs the liveness-based memory planner over the active and idle plans the
// schedule selected, reading their window bytes from the shared Pareto sets.
// Algorithm 1 does not see activations held for later consumers, so the true
// peak can overshoot the scratchpad. The pass then reruns the reconciliation
// under a smaller budget and plans again, until the plan fits or no schedule
// fits the budget. Only the final schedule is materialized into CompiledOps
// (active/idle plans bound to their operator, ground-truth metrics, setup and
// layout-transition costs). Each next budget comes from numbers the last
// attempt measured:
//   - it is at most the last budget minus the overshoot;
//   - it is below the schedule's stable_budget, so the schedule changes;
//   - if the peak did not move, it is below the largest charge of the peak's
//     operators (the peak operator and the producer and consumers of every
//     activation live there), so one of them must pick a smaller plan.
// The budget falls on every attempt, and Algorithm 1 finds no schedule once
// it is below the all-idle minimum, so the loop ends.

#ifndef T10_SRC_CORE_PASS_MEMORY_PLAN_H_
#define T10_SRC_CORE_PASS_MEMORY_PLAN_H_

#include "src/core/pass/pass.h"

namespace t10 {

class MemoryPlanPass final : public Pass {
 public:
  const char* name() const override { return pass_names::kMemoryPlan; }
  PassResult Run(CompilationContext& ctx) override;
  verify::VerifyResult Verify(const CompilationContext& ctx) const override;
};

}  // namespace t10

#endif  // T10_SRC_CORE_PASS_MEMORY_PLAN_H_
