// Per-core memory planning with tensor liveness (paper §4.4: "T10 performs
// tensor liveness analysis to reuse the memory of precedent operators").
//
// After the inter-operator schedule fixes every operator's idle and active
// plans, this pass lays out one core's scratchpad over the whole model
// execution:
//   - weight windows (idle layouts) are persistent allocations,
//   - activation windows live from their producer until their last consumer,
//   - each operator's transient working space (the delta between its active
//     footprint and its operands' resident windows) lives only while it runs,
//   - the shift buffer is a fixed reservation.
// The planner allocates through the same first-fit/coalescing LocalMemory
// used by the simulator, so fragmentation is modelled, and it reports the
// peak usage — the number that decides whether the model truly fits.

#ifndef T10_SRC_CORE_MEMORY_PLANNER_H_
#define T10_SRC_CORE_MEMORY_PLANNER_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/core/compiler.h"

namespace t10 {

struct MemoryInterval {
  std::string label;
  std::int64_t offset = -1;
  std::int64_t bytes = 0;
  int first_op = 0;  // Allocated before this operator runs.
  int last_op = 0;   // Freed after this operator runs (inclusive).
  bool persistent = false;
};

struct MemoryPlan {
  bool fits = true;
  std::int64_t capacity = 0;
  std::int64_t persistent_bytes = 0;  // Weights + shift buffer.
  std::int64_t peak_bytes = 0;        // Max concurrent usage across ops.
  int peak_op = -1;                   // Operator at which the peak occurs.
  std::vector<MemoryInterval> intervals;

  // Sum of all interval sizes — how much memory a reuse-free layout would
  // need; peak_bytes / naive_bytes quantifies the value of liveness reuse.
  std::int64_t NaiveBytes() const;
  std::string DebugString() const;
};

// The two plans of one operator the memory planner reads window bytes from.
struct OpPlans {
  const ExecutionPlan* active = nullptr;
  const ExecutionPlan* idle = nullptr;
};

// Plans one core's memory for one OpPlans per graph operator. Uses each
// operator's active operand and output windows, its idle weight windows, and
// the graph's liveness. Only window bytes are read, so the plans may be bound
// to another operator of the same signature.
MemoryPlan PlanMemory(std::span<const OpPlans> plans, const Graph& graph, const ChipSpec& chip);

// The same over a compiled model's active and idle plans; a model that does
// not fit gets an empty plan that does not fit either.
MemoryPlan PlanMemory(const CompiledModel& model, const Graph& graph, const ChipSpec& chip);

}  // namespace t10

#endif  // T10_SRC_CORE_MEMORY_PLANNER_H_
