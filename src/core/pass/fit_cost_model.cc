#include "src/core/pass/fit_cost_model.h"

#include "src/verify/pass_checks.h"

namespace t10 {

PassResult FitCostModelPass::Run(CompilationContext& ctx) {
  ctx.resources->cost_model();  // Fits on first use, timed by the resources.
  ctx.resources->EnsurePlanCacheAttached(ctx.trace);
  return PassResult::Continue();
}

verify::VerifyResult FitCostModelPass::Verify(const CompilationContext& ctx) const {
  return verify::CheckCostModelFit(ctx);
}

}  // namespace t10
