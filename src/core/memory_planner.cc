#include "src/core/memory_planner.h"

#include <algorithm>
#include <sstream>

#include "src/sim/local_memory.h"
#include "src/util/logging.h"
#include "src/verify/verifier.h"

namespace t10 {

std::int64_t MemoryPlan::NaiveBytes() const {
  std::int64_t total = 0;
  for (const MemoryInterval& interval : intervals) {
    total += interval.bytes;
  }
  return total;
}

std::string MemoryPlan::DebugString() const {
  std::ostringstream out;
  out << "memory plan: peak " << peak_bytes << "/" << capacity << "B at op " << peak_op
      << ", persistent " << persistent_bytes << "B, " << intervals.size() << " intervals, naive "
      << NaiveBytes() << "B";
  return out.str();
}

MemoryPlan PlanMemory(const CompiledModel& model, const Graph& graph, const ChipSpec& chip) {
  if (!model.fits) {
    MemoryPlan plan;
    plan.capacity = chip.core_memory_bytes;
    plan.fits = false;
    return plan;
  }
  std::vector<OpPlans> plans;
  plans.reserve(model.ops.size());
  for (const CompiledOp& op : model.ops) {
    plans.push_back(OpPlans{&op.active_plan, &op.idle_plan});
  }
  return PlanMemory(plans, graph, chip);
}

MemoryPlan PlanMemory(std::span<const OpPlans> plans, const Graph& graph, const ChipSpec& chip) {
  MemoryPlan plan;
  plan.capacity = chip.core_memory_bytes;
  if (plans.empty()) {
    return plan;
  }
  const int num_ops = static_cast<int>(plans.size());
  T10_CHECK_EQ(num_ops, graph.num_ops());

  // --- Build the interval set. ---
  // Persistent: the shift buffer and every operator's idle weight windows.
  plan.intervals.push_back(
      MemoryInterval{"shift_buffer", -1, chip.shift_buffer_bytes, 0, num_ops - 1, true});
  for (int i = 0; i < num_ops; ++i) {
    const Operator& op = graph.op(i);
    std::int64_t idle_weights = 0;
    std::int64_t active_weights = 0;
    for (std::size_t j = 0; j < op.inputs().size(); ++j) {
      if (!graph.tensor(op.inputs()[j].name).is_weight) {
        continue;
      }
      idle_weights += plans[static_cast<std::size_t>(i)].idle->OperandWindowBytes(
          static_cast<int>(j));
      active_weights += plans[static_cast<std::size_t>(i)].active->OperandWindowBytes(
          static_cast<int>(j));
    }
    if (idle_weights > 0) {
      plan.intervals.push_back(
          MemoryInterval{op.name() + ".weights(idle)", -1, idle_weights, 0, num_ops - 1, true});
    }
    // Transient growth while this operator is active (setup inflates the
    // idle layout to the active one, teardown shrinks it back).
    const std::int64_t delta = std::max<std::int64_t>(0, active_weights - idle_weights);
    if (delta > 0) {
      plan.intervals.push_back(MemoryInterval{op.name() + ".weights(setup)", -1, delta, i, i,
                                              false});
    }
  }

  // Activations: window bytes from producer through last consumer; the
  // resident size is the largest layout any adjacent operator uses.
  for (const auto& [name, info] : graph.tensors()) {
    if (info.is_weight) {
      continue;
    }
    std::int64_t bytes = 0;
    int first = info.producer >= 0 ? info.producer : 0;
    int last = first;
    if (info.producer >= 0) {
      bytes = std::max(
          bytes, plans[static_cast<std::size_t>(info.producer)].active->output_plan().window_bytes);
    }
    for (int consumer : info.consumers) {
      const Operator& op = graph.op(consumer);
      for (std::size_t j = 0; j < op.inputs().size(); ++j) {
        if (op.inputs()[j].name == name) {
          bytes = std::max(bytes, plans[static_cast<std::size_t>(consumer)]
                                      .active->OperandWindowBytes(static_cast<int>(j)));
        }
      }
      last = std::max(last, consumer);
    }
    if (info.producer >= 0 && info.consumers.empty()) {
      last = num_ops - 1;  // Graph output.
    }
    if (bytes > 0) {
      plan.intervals.push_back(MemoryInterval{name, -1, bytes, first, last, false});
    }
  }

  // --- First-fit timeline allocation with liveness-driven reuse. ---
  // Allocate against an oversized arena so the true peak is measured even
  // when it exceeds the scratchpad (the compiler uses the overshoot to
  // shrink the reconciliation budget and retry).
  LocalMemory memory(std::max(plan.capacity * 4, plan.NaiveBytes() + plan.capacity));
  // Persistent intervals first.
  for (MemoryInterval& interval : plan.intervals) {
    if (!interval.persistent) {
      continue;
    }
    auto offset = memory.Allocate(interval.bytes);
    T10_CHECK(offset.has_value());
    interval.offset = *offset;
    plan.persistent_bytes += interval.bytes;
  }
  // Sweep the operator timeline.
  std::vector<std::vector<MemoryInterval*>> starting(static_cast<std::size_t>(num_ops));
  std::vector<std::vector<MemoryInterval*>> ending(static_cast<std::size_t>(num_ops));
  for (MemoryInterval& interval : plan.intervals) {
    if (interval.persistent) {
      continue;
    }
    starting[static_cast<std::size_t>(interval.first_op)].push_back(&interval);
    ending[static_cast<std::size_t>(interval.last_op)].push_back(&interval);
  }
  for (int t = 0; t < num_ops; ++t) {
    for (MemoryInterval* interval : starting[static_cast<std::size_t>(t)]) {
      auto offset = memory.Allocate(interval->bytes);
      T10_CHECK(offset.has_value());
      interval->offset = *offset;
    }
    if (memory.used_bytes() > plan.peak_bytes) {
      plan.peak_bytes = memory.used_bytes();
      plan.peak_op = t;
    }
    for (MemoryInterval* interval : ending[static_cast<std::size_t>(t)]) {
      memory.Free(interval->offset);
    }
  }
  plan.fits = plan.peak_bytes <= plan.capacity;

  // Cross-check: the interval set must be overlap-free and its recomputed
  // high-water mark must match what the allocator observed.
  if (verify::InternalVerifyEnabled()) {
    const verify::VerifyResult result = verify::Verifier(chip).VerifyMemoryPlan(plan);
    T10_CHECK(result.ok()) << "memory plan fails static verification:\n" << result.Listing();
  }
  return plan;
}

}  // namespace t10
