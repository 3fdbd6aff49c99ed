// End-to-end T10 compiler (paper §4, Figure 4).
//
// Compilation runs as a pass pipeline over a shared CompilationContext
// (src/core/pass/): FitCostModel -> IntraOpSearch -> InterOpReconcile ->
// MemoryPlan -> Finalize. The Compiler here is a thin driver: it owns the
// long-lived resources (chip, ground truth, lazily fitted cost model, plan
// cache, worker pool) and hands them to the PassManager per compile. The
// intra-operator search fans out across operators on a worker pool
// (CompileOptions::jobs) with bit-deterministic results, and the signature
// cache can persist to disk (CompileOptions::plan_cache_dir) so repeated
// compiles skip the search entirely.

#ifndef T10_SRC_CORE_COMPILER_H_
#define T10_SRC_CORE_COMPILER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/inter_op.h"
#include "src/core/plan.h"
#include "src/core/search.h"
#include "src/ir/graph.h"
#include "src/util/status.h"

namespace t10 {

namespace obs {
class Tracer;
}  // namespace obs

class CompilerResources;

struct CompileOptions {
  SearchConstraints constraints;
  // When false, idle layouts stay minimal and no memory is traded for setup
  // time (the policy Fig 20 attributes to Roller); used for ablations.
  bool inter_op_reconcile = true;
  int cost_model_samples = 240;
  // Worker threads for the intra-op search: 1 = serial (the default for
  // library users), 0 = hardware concurrency (the t10c default). Any value
  // yields a bit-identical CompiledModel.
  int jobs = 1;
  // When non-empty, an existing directory the plan cache persists to
  // (t10c --plan-cache=DIR); empty keeps the cache in-memory only.
  std::string plan_cache_dir;
  // When set, every compile roots a trace on the "compile" lane: one span
  // per pass run (PassManager) and one per intra-op search chunk on a
  // "compile.search.<op>" lane, "compile.search.<op>.<k>" for chunk k > 0
  // (t10c --trace-spans). Null = no tracing, zero overhead.
  obs::Tracer* tracer = nullptr;
};

struct CompiledOp {
  int op_index = -1;
  ExecutionPlan active_plan;
  ExecutionPlan idle_plan;       // Weight layout between executions.
  PlanMetrics predicted;         // Under the fitted cost model.
  PlanMetrics measured;          // Under the hardware ground truth.
  double setup_seconds = 0.0;      // Idle -> active weight redistribution.
  double transition_seconds = 0.0; // Input layout mismatch exchange (§5).
  std::int64_t setup_bytes = 0;      // Per-core bytes fetched during setup.
  std::int64_t transition_bytes = 0; // Per-core bytes crossing links in transitions.
  // Intra-op search statistics for this op's signature (Fig 18).
  double complete_space_log10 = 0.0;
  std::int64_t filtered_count = 0;
  std::int64_t pareto_count = 0;

  double TotalSeconds() const {
    return setup_seconds + transition_seconds + measured.total_seconds();
  }
};

struct CompiledModel {
  std::string model_name;
  bool fits = true;  // False if the model cannot fit the distributed memory.
  std::vector<CompiledOp> ops;
  std::int64_t idle_bytes_per_core = 0;
  // Peak per-core usage from the liveness-based memory plan (§4.4) of the
  // final schedule; the memory_plan pass lowers Algorithm 1's budget until
  // this fits the core.
  std::int64_t memory_peak_bytes = 0;
  std::vector<ReconcileStep> reconcile_trajectory;  // Fig 20.
  double compile_wall_seconds = 0.0;

  double TotalSeconds() const;
  double ComputeSeconds() const;
  // All inter-core traffic time: rotations, epilogues, setup, transitions.
  double ExchangeSeconds() const;
  double SetupSeconds() const;
  // Average per-core link bandwidth achieved during data movement (Fig 14).
  double AverageExchangeBandwidth() const;

  // Deterministic serialization of everything the compile decided: fits,
  // per-op plans (F_op + temporal factors), predicted/measured metrics,
  // setup/transition costs, the reconcile trajectory and memory totals —
  // excluding compile_wall_seconds, the one wall-clock field. Doubles print
  // as hexfloat, so two models are byte-identical iff their fingerprints
  // match; the determinism tests compare compiles across --jobs values and
  // cold/warm caches with it.
  std::string Fingerprint() const;
};

// Result of degraded re-planning over a chip with failed cores/links.
struct DegradedPlan {
  ChipSpec surviving;         // chip.SurvivingSpec(): the healthy sub-chip.
  std::vector<int> core_map;  // Logical core i of `model` runs on physical
                              // core core_map[i] (chip.UsableCoreIds()).
  CompiledModel model;        // Compiled against `surviving`; borrows the
                              // Graph's operators like Compiler::Compile.
};

// Degraded re-planning: given a chip whose health mask marks persistently
// failed cores and links (link-down degrades to destination-core-down, see
// ChipSpec::UsableCoreIds), re-runs the pass pipeline from IntraOpSearch
// over the surviving topology and returns a degraded-but-correct plan plus
// the logical->physical core map needed to execute it around the holes.
// Errors: kFailedPrecondition if the chip reports no failures (nothing to
// replan), kUnavailable if no core survives, kResourceExhausted if the model
// no longer fits the surviving distributed memory.
StatusOr<DegradedPlan> ReplanDegraded(const ChipSpec& chip, const Graph& graph,
                                      CompileOptions options = {});

class Compiler {
 public:
  explicit Compiler(const ChipSpec& chip, CompileOptions options = {});
  ~Compiler();

  Compiler(const Compiler&) = delete;
  Compiler& operator=(const Compiler&) = delete;

  // Compiles a model by running the full pass pipeline. The returned
  // CompiledModel borrows the Graph's operators; the Graph must outlive it.
  CompiledModel Compile(const Graph& graph);

  // Runs the pipeline from the named pass (a pass_names constant from
  // src/core/pass/pass.h). Degraded re-planning uses this to restart from
  // IntraOpSearch; the skipped FitCostModel work happens lazily on demand.
  CompiledModel CompileFrom(const Graph& graph, const std::string& start_pass);

  // Intra-op search for a single operator, going through the signature cache.
  // The result's plans reference `op`.
  IntraOpResult SearchOp(const Operator& op);

  const ChipSpec& chip() const;
  const FittedCostModel& cost_model() const;
  const GroundTruthTiming& ground_truth() const;
  // Distinct operator signatures in the plan cache (searched or loaded).
  int num_cached_signatures() const;

  // The standard pipeline's pass names, in order (t10c --print-passes).
  static std::vector<std::string> PassNames();

 private:
  std::unique_ptr<CompilerResources> resources_;
};

}  // namespace t10

#endif  // T10_SRC_CORE_COMPILER_H_
