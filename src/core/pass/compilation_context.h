// Shared state of the compilation pass pipeline.
//
// CompilerResources holds everything that outlives one compile and is shared
// by every pass: the chip, the options, the ground truth, the lazily fitted
// cost model, the plan cache and the search worker pool. CompilationContext
// holds the per-compile artifacts each pass produces for the next one —
// passes communicate exclusively through it (no pass calls into another
// pass), which is what lets the fault re-planner restart the pipeline from
// IntraOpSearch and lets tests drive individual passes in isolation.

#ifndef T10_SRC_CORE_PASS_COMPILATION_CONTEXT_H_
#define T10_SRC_CORE_PASS_COMPILATION_CONTEXT_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/inter_op.h"
#include "src/core/memory_planner.h"
#include "src/core/partition.h"
#include "src/core/pass/plan_cache.h"
#include "src/core/search.h"
#include "src/hardware/chip_spec.h"
#include "src/hardware/cluster_spec.h"
#include "src/hardware/timing_source.h"
#include "src/ir/graph.h"
#include "src/obs/span.h"
#include "src/util/thread_pool.h"

namespace t10 {

// Long-lived compiler state shared by every pass (and every compile of one
// Compiler instance).
class CompilerResources {
 public:
  CompilerResources(const ChipSpec& chip, CompileOptions options);

  const ChipSpec& chip() const { return chip_; }
  const CompileOptions& options() const { return options_; }
  const GroundTruthTiming& truth() const { return truth_; }

  // The fitted cost model, fitting it on first use (in the FitCostModel
  // pass, so compiler.pass.fit_cost_model.seconds times it). Lazy so
  // constructing a Compiler stays cheap and CompileFrom(IntraOpSearch)
  // needs no preceding FitCostModel pass run.
  const FittedCostModel& cost_model();
  bool cost_model_ready() const { return cost_model_.has_value(); }

  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

  // Attaches options().plan_cache_dir to the plan cache exactly once per
  // Compiler (no-op without a directory). Attachment failures log a warning
  // and leave the cache memory-only — a broken cache dir must never fail a
  // compile. Load-time rejections land on compiler.plan_cache.rejected. The
  // attach (fingerprint and file load, not the fit) runs in a
  // phase.plan_cache_load span under `trace`, timed into
  // compiler.phase.plan_cache_load.seconds.
  void EnsurePlanCacheAttached(const obs::TraceContext& trace = {});

  // Worker count the search fans out to: options().jobs, where 0 means
  // ThreadPool::HardwareConcurrency() (negative values clamp to 1).
  int jobs() const;

  // The shared worker pool, created on first use with jobs() workers.
  ThreadPool& pool();

 private:
  ChipSpec chip_;
  CompileOptions options_;
  GroundTruthTiming truth_;
  std::optional<FittedCostModel> cost_model_;
  PlanCache plan_cache_;
  bool cache_attach_attempted_ = false;
  std::unique_ptr<ThreadPool> pool_;
};

// Per-compile pipeline state: every artifact one pass hands to the next.
struct CompilationContext {
  const Graph* graph = nullptr;
  CompilerResources* resources = nullptr;

  // The cluster a sharded (multi-chip) compile targets, read by the
  // GraphPartition pass (ShardedCompiler sets it); null for a single-chip
  // compile.
  const ClusterSpec* cluster = nullptr;

  // GraphPartition artifact: the operator -> stage assignment and the
  // boundary transfer program for the whole cluster.
  GraphPartitionResult partition;

  // Tracing context for this compile (inactive unless CompileOptions::tracer
  // is set). The PassManager re-parents it to the running pass's span, so
  // work a pass fans out to worker threads lands under that pass.
  obs::TraceContext trace;

  // The result being built; model_name is set by the driver, fits/ops/
  // metrics by the passes.
  CompiledModel model;

  // IntraOpSearch output: one Pareto set per distinct operator signature, in
  // the order the signatures first appear, and each operator's index into
  // it. A set's plans stay bound to the first operator of its signature;
  // MaterializeOps binds the copies it takes to their own operator.
  std::vector<IntraOpResult> searches;
  std::vector<int> search_of_op;

  // The Pareto set of operator `op`.
  const IntraOpResult& search(int op) const {
    return searches[static_cast<std::size_t>(search_of_op[static_cast<std::size_t>(op)])];
  }

  // InterOpReconcile artifacts: Algorithm 1's option sets, one per (Pareto
  // set, weight operands), each operator's index into them, and the latest
  // schedule it produced (MemoryPlan replaces the schedule when it reruns the
  // reconciliation under a smaller budget).
  std::vector<OpOptionSet> option_sets;
  std::vector<int> option_set_of_op;
  InterOpSchedule schedule;

  // MemoryPlan artifact: the liveness-based per-core memory plan of the
  // final schedule.
  MemoryPlan memory_plan;
};

}  // namespace t10

#endif  // T10_SRC_CORE_PASS_COMPILATION_CONTEXT_H_
