#include "src/core/pass/intra_op_search.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/pass/plan_cache.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/thread_pool.h"
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

void RunSearches(std::span<OperatorSearch> searches, int max_chunks, ThreadPool* pool,
                 const obs::TraceContext& trace) {
  const auto for_each = [pool](std::int64_t n, const std::function<void(std::int64_t)>& fn) {
    if (pool != nullptr) {
      pool->ParallelFor(n, fn);
      return;
    }
    for (std::int64_t i = 0; i < n; ++i) {
      fn(i);
    }
  };
  struct Task {
    std::size_t search = 0;
    int chunk = 0;
    std::int64_t fops = 0;
  };
  std::vector<std::size_t> pending;
  for (std::size_t s = 0; s < searches.size(); ++s) {
    if (!searches[s].done()) {
      pending.push_back(s);
    }
  }
  std::vector<Task> tasks;
  while (!pending.empty()) {
    for_each(std::ssize(pending), [&](std::int64_t i) {
      searches[pending[static_cast<std::size_t>(i)]].Split(max_chunks);
    });
    // Chunks still to run per search: whichever task ends its search's last
    // chunk merges it, so merges overlap the other searches' chunks.
    std::vector<std::atomic<int>> unfinished(searches.size());
    tasks.clear();
    for (const std::size_t s : pending) {
      unfinished[s].store(searches[s].num_chunks(), std::memory_order_relaxed);
      for (int k = 0; k < searches[s].num_chunks(); ++k) {
        tasks.push_back(Task{s, k, searches[s].chunk_fops(k)});
      }
    }
    // Largest first: ParallelFor claims indices in ascending order, so the
    // long chunks start early and the short ones fill in at the end.
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const Task& a, const Task& b) { return a.fops > b.fops; });
    for_each(std::ssize(tasks), [&](std::int64_t i) {
      const Task& task = tasks[static_cast<std::size_t>(i)];
      OperatorSearch& search = searches[task.search];
      {
        // Chunk k of an operator has a lane of its own, so concurrent chunks
        // of one search render side by side.
        obs::Span span;
        if (trace.active()) {
          const std::string& name = search.op().name();
          span = obs::StartSpan(
              trace.WithTrack(task.chunk == 0 ? "compile.search." + name
                                              : "compile.search." + name + "." +
                                                    std::to_string(task.chunk)),
              "search");
          span.AddAttr("op", name);
          span.AddAttr("chunk", std::to_string(task.chunk));
          span.AddAttr("fops", std::to_string(task.fops));
        }
        search.RunChunk(task.chunk);
      }
      if (unfinished[task.search].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        search.Merge();
      }
    });
    std::erase_if(pending, [&](std::size_t s) { return searches[s].done(); });
  }
}

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
  // schedule-independent. Each distinct missing signature becomes one
  // search.
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

  // Parallel stage: every distinct missing signature's search, cut into
  // chunks that all go to the pool at once (RunSearches). Each search
  // writes only its own state, and its result is the serial search's.
  std::vector<OperatorSearch> searches;
  searches.reserve(misses.size());
  for (const Miss& miss : misses) {
    searches.emplace_back(*miss.op, chip, cost_model, resources.options().constraints);
  }
  const int jobs = resources.jobs();
  RunSearches(searches, jobs, jobs > 1 && !searches.empty() ? &resources.pool() : nullptr,
              ctx.trace);
  for (std::size_t i = 0; i < misses.size(); ++i) {
    ctx.searches[static_cast<std::size_t>(misses[i].slot)] = searches[i].TakeResult();
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
