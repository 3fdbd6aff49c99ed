#include "src/core/pass/intra_op_search.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pass/plan_cache.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"
#include "src/verify/pass_checks.h"

namespace t10 {

IntraOpResult SearchOneOp(const Operator& op, CompilerResources& resources) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  resources.EnsurePlanCacheAttached();
  PlanCache& cache = resources.plan_cache();
  const std::string signature = OperatorSignature(op);
  if (const CachedPlanSet* entry = cache.Lookup(signature)) {
    auto rebuilt = RebuildFromCache(*entry, op, resources.cost_model(), resources.chip());
    if (rebuilt.has_value()) {
      metrics.GetCounter("compiler.cache.hits").Increment();
      return std::move(*rebuilt);
    }
    // A loaded entry that parsed but no longer builds valid plans: drop to a
    // fresh search, which overwrites it below.
    metrics.GetCounter("compiler.plan_cache.rejected").Increment();
  }
  metrics.GetCounter("compiler.cache.misses").Increment();
  IntraOpResult result =
      SearchOperatorPlans(op, resources.chip(), resources.cost_model(), resources.options().constraints);
  cache.Insert(signature, ToCachedPlanSet(result));
  return result;
}

PassResult IntraOpSearchPass::Run(CompilationContext& ctx) {
  const Graph& graph = *ctx.graph;
  CompilerResources& resources = *ctx.resources;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  // Idempotent: a pipeline restarted past FitCostModel still gets the cache.
  resources.EnsurePlanCacheAttached();
  PlanCache& cache = resources.plan_cache();
  // Force the fit before fanning out: the pool workers must only read it.
  const FittedCostModel& cost_model = resources.cost_model();
  const ChipSpec& chip = resources.chip();

  const int num_ops = graph.num_ops();
  ctx.searches.assign(static_cast<std::size_t>(num_ops), IntraOpResult{});
  ctx.search_from_cache.assign(static_cast<std::size_t>(num_ops), false);

  // Serial stage, in op order: resolve every operator against the cache, so
  // hit/miss accounting is schedule-independent. Distinct missing signatures
  // become one search task each.
  std::vector<std::string> signatures(static_cast<std::size_t>(num_ops));
  std::map<std::string, int> miss_slot_by_signature;
  std::vector<const Operator*> miss_ops;
  std::vector<std::string> miss_signatures;
  std::vector<int> op_slot(static_cast<std::size_t>(num_ops), -1);
  for (int i = 0; i < num_ops; ++i) {
    const Operator& op = graph.op(i);
    const std::size_t idx = static_cast<std::size_t>(i);
    signatures[idx] = OperatorSignature(op);
    if (const CachedPlanSet* entry = cache.Lookup(signatures[idx])) {
      auto rebuilt = RebuildFromCache(*entry, op, cost_model, chip);
      if (rebuilt.has_value()) {
        metrics.GetCounter("compiler.cache.hits").Increment();
        ctx.searches[idx] = std::move(*rebuilt);
        ctx.search_from_cache[idx] = true;
        continue;
      }
      metrics.GetCounter("compiler.plan_cache.rejected").Increment();
    }
    const auto [it, inserted] =
        miss_slot_by_signature.emplace(signatures[idx], static_cast<int>(miss_ops.size()));
    if (inserted) {
      miss_ops.push_back(&op);
      miss_signatures.push_back(signatures[idx]);
      metrics.GetCounter("compiler.cache.misses").Increment();
    } else {
      // Same signature as an operator already being searched this compile:
      // the serial compiler saw these as cache hits, and so do we.
      metrics.GetCounter("compiler.cache.hits").Increment();
    }
    op_slot[idx] = it->second;
  }

  // Parallel stage: one search per distinct missing signature. Each task
  // writes only its own slot; SearchOperatorPlans is deterministic and its
  // counters are atomics, so totals (not interleavings) are what surfaces.
  const std::int64_t num_misses = static_cast<std::int64_t>(miss_ops.size());
  std::vector<IntraOpResult> miss_results(static_cast<std::size_t>(num_misses));
  // The context is captured by value: whichever pool thread runs a task, its
  // span lands under this pass's span, on a per-op "compile.search.<op>"
  // lane so concurrent searches render side by side.
  const obs::TraceContext trace = ctx.trace;
  const auto search_slot = [&, trace](std::int64_t slot) {
    const std::size_t idx = static_cast<std::size_t>(slot);
    obs::Span task_span;
    if (trace.active()) {
      task_span =
          obs::StartSpan(trace.WithTrack("compile.search." + miss_ops[idx]->name()), "search");
      task_span.AddAttr("op", miss_ops[idx]->name());
      task_span.AddAttr("signature", miss_signatures[idx]);
    }
    miss_results[idx] =
        SearchOperatorPlans(*miss_ops[idx], chip, cost_model, resources.options().constraints);
  };
  if (resources.jobs() > 1 && num_misses > 1) {
    resources.pool().ParallelFor(num_misses, search_slot);
  } else {
    for (std::int64_t slot = 0; slot < num_misses; ++slot) {
      search_slot(slot);
    }
  }

  // Merge stage, in fixed orders: cache insertion by slot, results by op.
  for (std::int64_t slot = 0; slot < num_misses; ++slot) {
    cache.Insert(miss_signatures[static_cast<std::size_t>(slot)],
                 ToCachedPlanSet(miss_results[static_cast<std::size_t>(slot)]));
  }
  for (int i = 0; i < num_ops; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const int slot = op_slot[idx];
    if (slot < 0) {
      continue;  // Filled from the cache in the serial stage.
    }
    if (&graph.op(i) == miss_ops[static_cast<std::size_t>(slot)]) {
      ctx.searches[idx] = std::move(miss_results[static_cast<std::size_t>(slot)]);
    } else {
      // Duplicate signature: rebuild against this op, exactly like a hit.
      const CachedPlanSet* entry = cache.Lookup(signatures[idx]);
      T10_CHECK(entry != nullptr);
      auto rebuilt = RebuildFromCache(*entry, graph.op(i), cost_model, chip);
      T10_CHECK(rebuilt.has_value())
          << "freshly searched plans fail to rebuild for " << graph.op(i).name();
      ctx.searches[idx] = std::move(*rebuilt);
    }
  }

  // An empty Pareto set means the operator cannot fit the distributed memory
  // under any plan: the model does not fit.
  for (int i = 0; i < num_ops; ++i) {
    if (ctx.searches[static_cast<std::size_t>(i)].pareto.empty()) {
      ctx.model.fits = false;
      ctx.model.ops.clear();
      return PassResult::Stop();
    }
  }
  return PassResult::Continue();
}

verify::VerifyResult IntraOpSearchPass::Verify(const CompilationContext& ctx) const {
  return verify::CheckSearchResults(ctx);
}

}  // namespace t10
