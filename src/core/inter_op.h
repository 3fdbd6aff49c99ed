// Holistic inter-operator memory reconciliation (paper §4.3.2, Algorithm 1).
//
// Every operator holds its persistent weights on-chip even while idle. Each
// operator therefore gets two plans: an *idle* weight layout (minimal memory)
// and an *active* execution plan (minimal latency). Turning idle into active
// costs a setup phase that re-distributes weight partitions over the
// inter-core links. Algorithm 1 greedily spends idle memory where it buys the
// most setup time: each step moves the operator with the best
// -dT_setup/dM_idle ratio to a roomier idle layout, re-fits every operator's
// active plan into the remaining memory, and keeps the best end-to-end
// configuration seen.

#ifndef T10_SRC_CORE_INTER_OP_H_
#define T10_SRC_CORE_INTER_OP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/hardware/chip_spec.h"

namespace t10 {

// One Pareto-optimal plan of an operator, reduced to what Algorithm 1 needs.
struct OpPlanOption {
  int plan_index = -1;         // Index into the operator's Pareto set.
  double exec_seconds = 0.0;   // Predicted execution time when active.
  std::int64_t active_bytes = 0;  // Per-core footprint while executing.
  std::int64_t weight_bytes = 0;  // Per-core persistent weight footprint.
  // Per-weight-operand window bytes under this plan's layout (used to price
  // the idle->active transition).
  std::vector<std::int64_t> weight_windows;
};

struct InterOpOperator {
  std::string name;
  std::vector<OpPlanOption> options;  // The operator's Pareto frontier.
};

// The options of one Pareto set as Algorithm 1 sees them, shared by every
// operator that carries the set with the same weight operands (identical
// operators reuse one plan set, paper §6.3). Option j is plan j of the set;
// the window bytes of all options sit in one flat array.
class OpOptionSet {
 public:
  explicit OpOptionSet(int num_weights) : num_weights_(num_weights) {}

  // Appends an option; `windows` holds its window bytes per weight operand.
  void Add(double exec_seconds, std::int64_t active_bytes, std::span<const std::int64_t> windows);

  int size() const { return static_cast<int>(exec_seconds_.size()); }
  double exec_seconds(int j) const { return exec_seconds_[static_cast<std::size_t>(j)]; }
  std::int64_t active_bytes(int j) const { return active_bytes_[static_cast<std::size_t>(j)]; }
  // Per-core persistent weight footprint: the sum of the option's windows.
  std::int64_t weight_bytes(int j) const { return weight_bytes_[static_cast<std::size_t>(j)]; }

  // SetupFetchBytes() and SetupSeconds() below, between options of this set.
  std::int64_t SetupFetchBytes(int idle, int active) const;
  double SetupSeconds(int idle, int active, const ChipSpec& chip) const;

 private:
  int num_weights_ = 0;
  std::vector<double> exec_seconds_;
  std::vector<std::int64_t> active_bytes_;
  std::vector<std::int64_t> weight_bytes_;
  std::vector<std::int64_t> windows_;  // Option j's at [j * num_weights_, (j + 1) * num_weights_).
};

// Chosen states for one operator.
struct OpSchedule {
  int idle_option = -1;    // Weight layout while idle.
  int active_option = -1;  // Execution plan while active.
  double setup_seconds = 0.0;
  double exec_seconds = 0.0;
  // Bytes the active plan charged against the budget at the chosen step:
  // its active bytes plus every other operator's idle weights.
  std::int64_t charged_bytes = 0;
};

// One point of the greedy search trajectory (Fig 20 plots these).
struct ReconcileStep {
  std::int64_t idle_bytes_per_core = 0;
  double total_seconds = 0.0;
  bool feasible = false;
};

struct InterOpSchedule {
  std::vector<OpSchedule> per_op;
  double total_seconds = 0.0;          // Sum of setup + exec across operators.
  double setup_seconds = 0.0;
  std::int64_t idle_bytes_per_core = 0;
  bool feasible = false;
  std::vector<ReconcileStep> trajectory;
  // The largest of every evaluated step's idle bytes and every assigned
  // operator's charge. Any budget in [stable_budget, the budget given]
  // returns this same schedule, so a caller that must change it has to go
  // below stable_budget.
  std::int64_t stable_budget = 0;
};

// Per-core bytes a core must fetch to morph a weight layout from `idle` to
// `active` (whatever its idle window already covers need not move).
std::int64_t SetupFetchBytes(const OpPlanOption& idle, const OpPlanOption& active);

// Seconds to morph a weight layout from `idle` to `active` on one chip: every
// core fetches the missing part of its active window over its link.
double SetupSeconds(const OpPlanOption& idle, const OpPlanOption& active, const ChipSpec& chip);

// Algorithm 1 over `set_of_op.size()` operators: operator i picks its plans
// from sets[set_of_op[i]]. `memory_budget_per_core` is the scratchpad
// capacity available to this model (chip.core_memory_bytes, or less when the
// liveness plan needs room Algorithm 1 does not see). Returns the best
// schedule found; `feasible` is false if even minimal layouts exceed memory.
// `max_steps` bounds the greedy loop: 1 evaluates only the all-minimal-idle
// configuration (the Roller-style policy, used for ablation), < 0 runs to
// convergence.
InterOpSchedule ReconcileInterOp(std::span<const OpOptionSet> sets,
                                 std::span<const int> set_of_op, const ChipSpec& chip,
                                 std::int64_t memory_budget_per_core, int max_steps = -1);

// The same over per-operator option lists (each operator its own set, each
// option's plan_index its position in the list).
InterOpSchedule ReconcileInterOp(const std::vector<InterOpOperator>& ops, const ChipSpec& chip,
                                 std::int64_t memory_budget_per_core, int max_steps = -1);

}  // namespace t10

#endif  // T10_SRC_CORE_INTER_OP_H_
