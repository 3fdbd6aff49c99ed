#include "src/core/pass/intra_op_search.h"

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/pass/plan_cache.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/verify/pass_checks.h"

namespace t10 {

namespace {

// Looks `signature` up in the plan cache and rebuilds the entry against `op`.
// A usable entry counts one cache hit; a damaged one counts a rejection and
// yields nullopt, as does a missing one — the caller then searches afresh
// and the insert overwrites the entry.
std::optional<IntraOpResult> RebuildCached(const std::string& signature, const Operator& op,
                                           CompilerResources& resources) {
  const CachedPlanSet* entry = resources.plan_cache().Lookup(signature);
  if (entry == nullptr) {
    return std::nullopt;
  }
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("compiler.plan_cache.rebuilds").Increment();
  auto rebuilt = RebuildFromCache(*entry, op, resources.cost_model(), resources.chip());
  if (rebuilt.has_value()) {
    metrics.GetCounter("compiler.cache.hits").Increment();
  } else {
    metrics.GetCounter("compiler.plan_cache.rejected").Increment();
  }
  return rebuilt;
}

}  // namespace

IntraOpResult SearchOneOp(const Operator& op, CompilerResources& resources) {
  resources.EnsurePlanCacheAttached();
  const std::string signature = OperatorSignature(op);
  if (auto rebuilt = RebuildCached(signature, op, resources)) {
    return std::move(*rebuilt);
  }
  obs::MetricsRegistry::Global().GetCounter("compiler.cache.misses").Increment();
  IntraOpResult result = SearchOperatorPlans(op, resources.chip(), resources.cost_model(),
                                             resources.options().constraints);
  resources.plan_cache().Insert(signature, ToCachedPlanSet(result));
  return result;
}

PassResult IntraOpSearchPass::Run(CompilationContext& ctx) {
  const Graph& graph = *ctx.graph;
  CompilerResources& resources = *ctx.resources;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  // Idempotent: a pipeline restarted past FitCostModel still gets the cache.
  resources.EnsurePlanCacheAttached(ctx.trace);
  // Force the fit before fanning out: the pool workers must only read it.
  const FittedCostModel& cost_model = resources.cost_model();
  const ChipSpec& chip = resources.chip();

  const int num_ops = graph.num_ops();
  ctx.searches.clear();
  ctx.search_of_op.assign(static_cast<std::size_t>(num_ops), -1);

  // Serial stage, in op order: give every distinct signature a slot, filled
  // from the cache if it holds the signature, so hit/miss accounting is
  // schedule-independent. Distinct missing signatures become one search task
  // each.
  struct Miss {
    int slot = 0;  // Index into ctx.searches.
    const Operator* op = nullptr;
    std::string signature;
  };
  std::unordered_map<std::string, int> slot_by_signature;
  std::vector<Miss> misses;
  for (int i = 0; i < num_ops; ++i) {
    const Operator& op = graph.op(i);
    std::string signature = OperatorSignature(op);
    const auto [it, inserted] =
        slot_by_signature.emplace(signature, static_cast<int>(ctx.searches.size()));
    ctx.search_of_op[static_cast<std::size_t>(i)] = it->second;
    if (!inserted) {
      // A later operator of a signature seen this compile shares its set;
      // the serial compiler saw these as cache hits, and so do we.
      metrics.GetCounter("compiler.cache.hits").Increment();
      continue;
    }
    if (auto rebuilt = RebuildCached(signature, op, resources)) {
      ctx.searches.push_back(std::move(*rebuilt));
      continue;
    }
    metrics.GetCounter("compiler.cache.misses").Increment();
    misses.push_back(Miss{it->second, &op, std::move(signature)});
    ctx.searches.emplace_back();
  }

  // Parallel stage: one search per distinct missing signature. Each task
  // writes only its own slot of ctx.searches; SearchOperatorPlans is
  // deterministic and its counters are atomics, so totals (not
  // interleavings) are what surfaces.
  const std::int64_t num_misses = static_cast<std::int64_t>(misses.size());
  // The context is captured by value: whichever pool thread runs a task, its
  // span lands under this pass's span, on a per-op "compile.search.<op>"
  // lane so concurrent searches render side by side.
  const obs::TraceContext trace = ctx.trace;
  const auto search_miss = [&, trace](std::int64_t index) {
    const Miss& miss = misses[static_cast<std::size_t>(index)];
    obs::Span task_span;
    if (trace.active()) {
      task_span = obs::StartSpan(trace.WithTrack("compile.search." + miss.op->name()), "search");
      task_span.AddAttr("op", miss.op->name());
      task_span.AddAttr("signature", miss.signature);
    }
    ctx.searches[static_cast<std::size_t>(miss.slot)] =
        SearchOperatorPlans(*miss.op, chip, cost_model, resources.options().constraints);
  };
  if (resources.jobs() > 1 && num_misses > 1) {
    resources.pool().ParallelFor(num_misses, search_miss);
  } else {
    for (std::int64_t index = 0; index < num_misses; ++index) {
      search_miss(index);
    }
  }

  // Cache insertion in a fixed order: the order the misses were found.
  for (const Miss& miss : misses) {
    resources.plan_cache().Insert(
        miss.signature, ToCachedPlanSet(ctx.searches[static_cast<std::size_t>(miss.slot)]));
  }

  // An empty Pareto set means the operator cannot fit the distributed memory
  // under any plan: the model does not fit.
  for (const IntraOpResult& search : ctx.searches) {
    if (search.pareto.empty()) {
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
