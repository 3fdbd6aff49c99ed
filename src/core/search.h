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
// Surviving plans are counted from each F_op's base; those that could reach
// the Pareto-optimal frontier of (execution time, per-core memory) are
// costed with the fitted model and reduced to it.

#ifndef T10_SRC_CORE_SEARCH_H_
#define T10_SRC_CORE_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
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
  // Plans that survived the rule-based filters: cost-evaluated, or dropped
  // unpriced because a frontier member already dominated them or their F_op.
  std::int64_t filtered_count = 0;
  // Valid F_op vectors visited.
  std::int64_t fop_count = 0;
};

// Searches execution plans for one operator. Vendor ops get a single fixed
// whole-chip plan. If the constrained search comes up empty the constraints
// are progressively relaxed; a still-empty frontier means the operator cannot
// fit the chip. The one-chunk OperatorSearch.
IntraOpResult SearchOperatorPlans(const Operator& op, const ChipSpec& chip,
                                  const TimingSource& cost_model,
                                  const SearchConstraints& constraints = {});

// One operator's search, cut into contiguous chunks of its F_op enumeration
// that may run on different threads. Each round: Split() collects the
// attempt's F_ops and cuts them, RunChunk() walks one chunk into its own
// frontier in two passes, and Merge(), once every chunk ran, folds the chunk
// frontiers through the frontier routine. Pass 1 counts each F_op's choices,
// the ones that pass the filters and its corner from the F_op's base alone
// (CountFopFunnel()); pass 2 costs the F_ops with passed choices in ascending
// order of their seconds floor, skipping each F_op whose corner, and each
// choice whose bytes, the running frontier covers. Frontier members carry their enumeration position (F_op,
// choice), and of exact (bytes, seconds) ties the earlier stays, so the
// frontier, the counts and the plans are the enumeration-order walk's for any
// chunk count and visiting order. Only compiler.search.fops_dominated depends
// on the cut. A merge whose frontier is empty relaxes the constraints and
// leaves the search for another round, as SearchOperatorPlans retries.
class OperatorSearch {
 public:
  // Counts one search. A vendor op is done at once with its fixed plan.
  OperatorSearch(const Operator& op, const ChipSpec& chip, const TimingSource& cost_model,
                 const SearchConstraints& constraints);
  ~OperatorSearch();
  OperatorSearch(OperatorSearch&&) noexcept;
  OperatorSearch& operator=(OperatorSearch&&) noexcept;

  const Operator& op() const { return *op_; }
  bool done() const { return done_; }

  // Collects the current attempt's F_ops and cuts them into
  // min(max_chunks, F_op count) chunks of near-equal F_op counts, at least
  // one. Not while done().
  void Split(int max_chunks);
  int num_chunks() const { return static_cast<int>(chunk_begin_.size()) - 1; }
  // F_ops in chunk `k`: the dispatch order's cost estimate.
  std::int64_t chunk_fops(int k) const;

  // Walks chunk `k`: pass 1 over its F_ops in order, up to the
  // max_evaluations cap, then pass 2. Calls for distinct chunks may run
  // concurrently.
  void RunChunk(int k);

  // Folds the round's chunks into the search's frontier and publishes the
  // round's compiler.search.* counts and compiler.phase.* times once. Of the
  // chunks in order, the one where the running evaluation count reaches
  // max_evaluations is walked again with what is left of the budget, and
  // the ones after it are dropped, as the serial walk stops there. A
  // non-empty frontier's plans are built and the search is done(); an empty
  // one relaxes the constraints, and after the last relaxation the search
  // is done() with an empty frontier.
  void Merge();

  // The result, once done(). Leaves the search empty.
  IntraOpResult TakeResult();

 private:
  struct Chunk;

  // Walks chunk `k` afresh, stopping once `budget` evaluations are used.
  void Walk(std::size_t k, std::int64_t budget);

  const Operator* op_;
  const ChipSpec* chip_;
  const TimingSource* cost_model_;
  SearchConstraints active_;  // The current attempt's constraints.
  int attempt_ = 0;
  bool done_ = false;
  std::vector<std::int64_t> fops_;         // The attempt's F_ops, flat.
  double collect_seconds_ = 0.0;           // Split()'s F_op walk.
  std::vector<std::size_t> chunk_begin_;   // Chunk k is F_ops [begin[k], begin[k + 1]).
  std::vector<Chunk> chunks_;
  IntraOpResult result_;
};

// Calls `visit` with each F_op the search enumerates for `op` under
// `constraints`, in search order: every product of per-axis factors that
// passes the per-axis padding prefilter and lands in the parallelism band.
// Stops once `visit` returns false. Exposed for testing.
void ForEachSearchedFop(const Operator& op, const ChipSpec& chip,
                        const SearchConstraints& constraints,
                        const std::function<bool(std::span<const std::int64_t>)>& visit);

// What the search's pass 1 counts of one F_op's choices (one temporal option
// per tensor) from its base alone, deriving no option. Every option the
// search derives passes TemporalWindowBytes(), with a window of the
// tensor's sub-tensor bytes over its ring size, so every choice is valid.
// Exposed for testing.
struct FopFunnel {
  std::int64_t choices = 0;           // The product of the per-tensor option counts.
  std::int64_t corner_bytes = 0;      // The smallest per-core bytes of any choice.
  std::int64_t replicated_bytes = 0;  // The all-replicated choice's, the largest.
};
FopFunnel CountFopFunnel(const FopBase& base, const SearchConstraints& constraints,
                         const ChipSpec& chip);

// What the search costs under one F_op: the plan's F_op base, built once,
// and for each tensor (inputs, then the output) the temporal options it
// tries, each reduced to its delta on the base: window bytes and, once a
// choice holding it is costed, its rotating (axis, window length) pairs. A
// choice of one option per tensor is then filtered and costed without
// building a plan, through the helpers ExecutionPlan::Rebuild() and
// Evaluate() are made of. Reset() reuses all storage. Exposed for testing.
class FopCandidates {
 public:
  // Derives the base and every option's window bytes for `fop`. Returns
  // false if F_op fails the padding filter; the options are then unusable
  // until the next successful Reset(). `timing` and `chip` must outlive the
  // next Reset().
  bool Reset(const Operator& op, std::span<const std::int64_t> fop,
             const SearchConstraints& constraints, const TimingSource& timing,
             const ChipSpec& chip);

  std::size_t num_tensors() const { return base_.tensors.size(); }
  std::size_t num_options(std::size_t tensor) const {
    return tensor_options_[tensor + 1] - tensor_options_[tensor];
  }
  // The temporal factors of option `option` of tensor `tensor`.
  std::span<const std::int64_t> temporal(std::size_t tensor, std::size_t option) const;

  // `choice` holds one option index per tensor; ExecutionPlan::Create()
  // succeeds on every choice's factors. PerCoreBytes() and Metrics() equal
  // what the created plan reports.
  std::int64_t PerCoreBytes(std::span<const std::size_t> choice) const;
  PlanMetrics Metrics(std::span<const std::size_t> choice);

  // A lower bound on Metrics(choice).total_seconds() of every choice: the
  // epilogue plus TimingSource::SplitSecondsFloor() of the F_op's
  // SplitFloorShape(), as shifts cost >= 0, less a relative slack for the
  // rounding of either side.
  double SecondsFloor() const;

 private:
  struct Option {
    std::size_t temporal = 0;         // Offset of its f_t in temporal_.
    std::int64_t window_bytes = 0;
    bool rotations_derived = false;   // By the first Metrics() that holds it.
    std::size_t rotations_begin = 0;  // Its range in option_rotations_.
    std::size_t rotations_end = 0;
  };
  const Option& option(std::size_t tensor, std::size_t index) const {
    return options_[tensor_options_[tensor] + index];
  }

  FopBase base_;
  const TimingSource* timing_ = nullptr;
  const ChipSpec* chip_ = nullptr;
  EpilogueCost epilogue_;
  std::vector<std::int64_t> temporal_;       // Every option's f_t, flat.
  std::vector<Option> options_;              // Per tensor, contiguous.
  std::vector<std::size_t> tensor_options_;  // Tensor t's options start here.
  std::vector<Rotation> option_rotations_;
  // Scratch of one Metrics() call.
  std::vector<Rotation> rotations_;
  std::vector<std::int64_t> axis_pace_;
  std::vector<RotationLoop> loops_;
};

// Reduces candidates to the Pareto frontier over (per_core_bytes, time),
// sorted by bytes ascending: keeps a plan iff no other plan is at least as
// good on both axes (and strictly better on one). Of plans tied exactly on
// (bytes, time) the one earliest in `candidates` is kept. The search folds
// its candidates through the same routine, breaking exact ties by
// enumeration position. Exposed for testing.
std::vector<PlanCandidate> ParetoFrontier(std::vector<PlanCandidate> candidates);

}  // namespace t10

#endif  // T10_SRC_CORE_SEARCH_H_
