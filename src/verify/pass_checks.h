// Pass-boundary verification rules for the compilation pipeline.
//
// Each compiler pass exposes a Verify() hook the PassManager runs (under
// InternalVerifyEnabled) before the next pass consumes the artifact. The rule
// implementations live here, in the verify layer, alongside the rest of the
// rule catalogue:
//
//   pass.cost_model.fit        every kernel class fitted with a finite R²
//   pass.search.coverage       every operator points at the Pareto set of its
//                              signature, one set per distinct signature
//   pass.search.pareto-order   Pareto sets sorted memory-ascending /
//                              time-descending with no dominated plan
//   pass.search.cache          every searched signature is present in the
//                              plan cache with the same plan count (the
//                              cache-consistency rule: what a warm compile
//                              would rebuild is exactly what this one found)
//   pass.search.plan           each Pareto plan passes the plan verifier
//   pass.reconcile.schedule    the schedule covers every operator with
//                              option indices inside its Pareto set
//
// Plus the existing memory-plan and whole-model rules, which the MemoryPlan
// and Finalize passes invoke directly through Verifier.

#ifndef T10_SRC_VERIFY_PASS_CHECKS_H_
#define T10_SRC_VERIFY_PASS_CHECKS_H_

#include "src/verify/diagnostics.h"

namespace t10 {
struct CompilationContext;
}  // namespace t10

namespace t10::verify {

VerifyResult CheckCostModelFit(const CompilationContext& ctx);
VerifyResult CheckSearchResults(const CompilationContext& ctx);
VerifyResult CheckReconcileSchedule(const CompilationContext& ctx);

}  // namespace t10::verify

#endif  // T10_SRC_VERIFY_PASS_CHECKS_H_
