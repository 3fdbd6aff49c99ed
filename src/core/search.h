// Intra-operator plan search (paper §4.3.1).
//
// The complete space of (F_op, f_t, rp) configurations is astronomically
// large (Fig 18: up to 10^19 for 7-dimensional convolutions). T10 prunes it
// with two user-configurable rule-based constraints before any cost
// evaluation:
//   - parallelism: plans must use at least `parallelism_fraction` of the
//     achievable core count, and
//   - padding: plans whose padded tensors waste more than
//     (1 - padding_threshold) of their footprint are discarded.
// Surviving plans are costed with the fitted model and reduced to the
// Pareto-optimal frontier of (execution time, per-core memory).

#ifndef T10_SRC_CORE_SEARCH_H_
#define T10_SRC_CORE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/core/plan.h"
#include "src/hardware/chip_spec.h"
#include "src/hardware/timing_source.h"
#include "src/ir/operator.h"

namespace t10 {

struct SearchConstraints {
  // Keep plans using >= this fraction of min(cores, operator domain).
  double parallelism_fraction = 0.9;
  // Keep plans whose total padding ratio (original/padded size) >= this.
  double padding_threshold = 0.9;
  // Maximum number of dims of one tensor that f_t may split simultaneously:
  // 0 (replication only, no rotation), 1 or 2. Other values CHECK-fail.
  int max_rotating_dims = 2;
  // Safety cap on cost-model evaluations per operator.
  std::int64_t max_evaluations = 2000000;
};

struct PlanCandidate {
  ExecutionPlan plan;
  PlanMetrics predicted;
};

struct IntraOpResult {
  // Pareto frontier, sorted by per-core memory ascending (so execution time
  // descends). Empty iff no plan of the operator fits the per-core memory at
  // all (the operator cannot run on this chip).
  std::vector<PlanCandidate> pareto;
  // log10 of the estimated complete configuration space (Fig 18).
  double complete_space_log10 = 0.0;
  // Plans that survived the rule-based filters and were cost-evaluated.
  std::int64_t filtered_count = 0;
  // Valid F_op vectors visited.
  std::int64_t fop_count = 0;
};

// Searches execution plans for one operator. Vendor ops get a single fixed
// whole-chip plan. If the constrained search comes up empty the constraints
// are progressively relaxed; a still-empty frontier means the operator cannot
// fit the chip.
IntraOpResult SearchOperatorPlans(const Operator& op, const ChipSpec& chip,
                                  const TimingSource& cost_model,
                                  const SearchConstraints& constraints = {});

// Reduces candidates to the Pareto frontier over (per_core_bytes, time):
// keeps a plan iff no other plan is at least as good on both axes (and
// strictly better on one). Exposed for testing and for the baselines.
std::vector<PlanCandidate> ParetoFrontier(std::vector<PlanCandidate> candidates);

}  // namespace t10

#endif  // T10_SRC_CORE_SEARCH_H_
