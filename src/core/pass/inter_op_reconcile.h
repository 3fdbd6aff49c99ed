// Pass 3: holistic inter-operator memory reconciliation (Algorithm 1).
//
// Reduces each operator's Pareto frontier to the option list Algorithm 1
// consumes and runs the greedy idle-memory/setup-time trade under the chip's
// per-core capacity. MemoryPlan reruns only the reconciliation, through
// ReconcileUnderBudget, when the liveness plan overshoots.

#ifndef T10_SRC_CORE_PASS_INTER_OP_RECONCILE_H_
#define T10_SRC_CORE_PASS_INTER_OP_RECONCILE_H_

#include <cstdint>

#include "src/core/pass/pass.h"

namespace t10 {

class InterOpReconcilePass final : public Pass {
 public:
  const char* name() const override { return pass_names::kInterOpReconcile; }
  PassResult Run(CompilationContext& ctx) override;
  verify::VerifyResult Verify(const CompilationContext& ctx) const override;
};

// Runs Algorithm 1 over ctx.inter_ops under `budget_bytes` per core and
// records the result: ctx.schedule and the model's fits, reconcile
// trajectory and idle bytes. Clears the model's ops and returns false when
// no schedule fits the budget.
bool ReconcileUnderBudget(CompilationContext& ctx, std::int64_t budget_bytes);

}  // namespace t10

#endif  // T10_SRC_CORE_PASS_INTER_OP_RECONCILE_H_
