#include "src/core/pass/compilation_context.h"

#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"

namespace t10 {

CompilerResources::CompilerResources(const ChipSpec& chip, CompileOptions options)
    : chip_(chip), options_(std::move(options)), truth_(chip) {}

const FittedCostModel& CompilerResources::cost_model() {
  if (!cost_model_.has_value()) {
    cost_model_ = FittedCostModel::Fit(truth_.truth(), options_.cost_model_samples);
  }
  return *cost_model_;
}

void CompilerResources::EnsurePlanCacheAttached(const obs::TraceContext& trace) {
  if (cache_attach_attempted_ || options_.plan_cache_dir.empty()) {
    return;
  }
  cache_attach_attempted_ = true;
  const FittedCostModel& fitted = cost_model();  // Fitted outside the load span.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Span span = obs::StartSpan(trace, "phase.plan_cache_load",
                                  &metrics.GetHistogram("compiler.phase.plan_cache_load.seconds"));
  const std::uint64_t fingerprint =
      PlanCache::Fingerprint(chip_, options_.constraints, fitted, options_.cost_model_samples);
  const Status status = plan_cache_.AttachDir(options_.plan_cache_dir, fingerprint);
  if (!status.ok()) {
    T10_LOG(Warning) << "plan cache disabled: " << status.ToString();
    return;
  }
  metrics.GetCounter("compiler.plan_cache.rejected").Add(plan_cache_.rejected_on_load());
  metrics.GetCounter("compiler.plan_cache.loaded_entries").Add(plan_cache_.size());
}

int CompilerResources::jobs() const {
  if (options_.jobs == 0) {
    return ThreadPool::HardwareConcurrency();
  }
  return options_.jobs < 1 ? 1 : options_.jobs;
}

ThreadPool& CompilerResources::pool() {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(jobs());
  }
  return *pool_;
}

}  // namespace t10
