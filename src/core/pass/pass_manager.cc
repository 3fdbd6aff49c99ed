#include "src/core/pass/pass.h"

#include <utility>

#include "src/core/pass/finalize.h"
#include "src/core/pass/fit_cost_model.h"
#include "src/core/pass/inter_op_reconcile.h"
#include "src/core/pass/intra_op_search.h"
#include "src/core/pass/memory_plan.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"
#include "src/verify/verifier.h"

namespace t10 {

verify::VerifyResult Pass::Verify(const CompilationContext& ctx) const {
  (void)ctx;
  return {};
}

void PassManager::AddPass(std::unique_ptr<Pass> pass) {
  T10_CHECK(pass != nullptr);
  passes_.push_back(std::move(pass));
}

std::vector<std::string> PassManager::PassNames() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) {
    names.emplace_back(pass->name());
  }
  return names;
}

int PassManager::IndexOf(const std::string& name) const {
  for (std::size_t i = 0; i < passes_.size(); ++i) {
    if (name == passes_[i]->name()) {
      return static_cast<int>(i);
    }
  }
  T10_CHECK(false) << "unknown pass '" << name << "'";
  return -1;
}

void PassManager::Run(CompilationContext& ctx, const std::string& start_pass) const {
  T10_CHECK(!passes_.empty()) << "empty pass pipeline";
  T10_CHECK(ctx.graph != nullptr && ctx.resources != nullptr);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int first = start_pass.empty() ? 0 : IndexOf(start_pass);
  for (std::size_t index = static_cast<std::size_t>(first); index < passes_.size(); ++index) {
    Pass& pass = *passes_[index];
    PassResult result;
    {
      const std::string prefix = std::string("compiler.pass.") + pass.name();
      metrics.GetCounter(prefix + ".runs").Increment();
      // Each pass run gets its own span, which also times the run into
      // compiler.pass.<name>.seconds, and the context is re-parented to it
      // for the duration so work the pass fans out (the intra-op search
      // tasks) nests under the right pass.
      obs::Span pass_span =
          obs::StartSpan(ctx.trace, pass.name(), &metrics.GetHistogram(prefix + ".seconds"));
      const obs::TraceContext saved_trace = ctx.trace;
      if (pass_span.active()) {
        ctx.trace = pass_span.context();
      }
      result = pass.Run(ctx);
      ctx.trace = saved_trace;
    }
    if (verify::InternalVerifyEnabled()) {
      const verify::VerifyResult check = pass.Verify(ctx);
      T10_CHECK(check.ok()) << "pass '" << pass.name() << "' output fails verification for "
                            << ctx.graph->name() << ":\n"
                            << check.Listing();
    }
    if (result.action == PassResult::Action::kStop) {
      return;
    }
  }
}

PassManager BuildCompilerPipeline() {
  PassManager manager;
  manager.AddPass(std::make_unique<FitCostModelPass>());
  manager.AddPass(std::make_unique<IntraOpSearchPass>());
  manager.AddPass(std::make_unique<InterOpReconcilePass>());
  manager.AddPass(std::make_unique<MemoryPlanPass>());
  manager.AddPass(std::make_unique<FinalizePass>());
  return manager;
}

}  // namespace t10
