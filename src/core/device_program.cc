#include "src/core/device_program.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "src/core/placement.h"
#include "src/util/logging.h"
#include "src/util/math_util.h"

namespace t10 {

std::int64_t DeviceProgram::BytesSentPerCore() const {
  std::int64_t bytes = 0;
  for (const ProgramStep& step : steps) {
    for (const ShiftSet& shift : step.shifts) {
      bytes += shift.slab_bytes;
    }
  }
  bytes += epilogue_rounds * epilogue_chunk_bytes;
  return bytes;
}

std::string DeviceProgram::DebugString() const {
  std::ostringstream out;
  out << "program " << op_name << ": " << cores_used << " cores, " << steps.size()
      << " steps, " << allocations.size() << " tensors";
  std::int64_t ring_count = 0;
  for (const TensorAllocation& alloc : allocations) {
    ring_count += static_cast<std::int64_t>(alloc.rings.size());
  }
  out << ", " << ring_count << " rings, " << BytesSentPerCore() << "B sent/core";
  if (epilogue_rounds > 0) {
    out << ", epilogue " << epilogue_rounds << "x" << epilogue_chunk_bytes << "B";
  }
  return out.str();
}

DeviceProgram LowerPlan(const ExecutionPlan& plan) {
  const Operator& op = plan.op();
  PlanGeometry geometry(plan);
  DeviceProgram program;
  program.op_name = op.name();
  program.cores_used = plan.cores_used();

  // allocate: one window buffer per core per operand; rotation rings ordered
  // so that position p sends to position p-1 (each core ships the head slab
  // of its window downstream; see program_executor.cc).
  for (int ti = 0; ti < geometry.num_operands(); ++ti) {
    const RTensorPlan& tp = plan.tensors()[static_cast<std::size_t>(ti)];
    TensorAllocation alloc;
    alloc.operand = ti;
    alloc.name = geometry.Operand(ti).name;
    alloc.window_bytes = tp.window_bytes;
    if (tp.ring_size > 1) {
      // Key: (sub-tensor id, ring index) -> cores ordered by ring position.
      std::map<std::pair<std::int64_t, std::int64_t>, std::vector<std::pair<std::int64_t, int>>>
          rings;
      for (int core = 0; core < geometry.num_cores(); ++core) {
        rings[{geometry.SubTensorIndex(ti, core), geometry.RingIndex(ti, core)}].push_back(
            {geometry.RingPosition(ti, core), core});
      }
      for (auto& [key, members] : rings) {
        std::sort(members.begin(), members.end());
        T10_CHECK_EQ(static_cast<std::int64_t>(members.size()), tp.ring_size)
            << op.name() << " operand " << ti;
        std::vector<int> ring;
        ring.reserve(members.size());
        for (const auto& [position, core] : members) {
          ring.push_back(core);
        }
        alloc.rings.push_back(std::move(ring));
      }
    }
    program.allocations.push_back(std::move(alloc));
  }

  // Steps: one ComputeSet per step, then the shifts of every loop that
  // advances after it.
  const std::int64_t total_steps = plan.total_steps();
  std::vector<std::int64_t> stride(plan.loops().size() + 1, 1);
  for (std::size_t i = plan.loops().size(); i-- > 0;) {
    stride[i] = stride[i + 1] * plan.loops()[i].steps;
  }
  for (std::int64_t s = 0; s < total_steps; ++s) {
    ProgramStep step;
    step.compute.sub_task = plan.StepSubTask();
    step.compute.vertices = plan.cores_used();
    for (std::size_t i = 0; i < plan.loops().size(); ++i) {
      if ((s + 1) % stride[i + 1] != 0) {
        continue;
      }
      for (int ti = 0; ti < geometry.num_operands(); ++ti) {
        const RTensorPlan& tp = plan.tensors()[static_cast<std::size_t>(ti)];
        for (int d : tp.rotating_dims) {
          if (geometry.Operand(ti).dims[d].axis != plan.loops()[i].axis) {
            continue;
          }
          ShiftSet shift;
          shift.operand = ti;
          shift.dim = d;
          shift.slab_bytes =
              tp.window_bytes * plan.loops()[i].pace / tp.window[static_cast<std::size_t>(d)];
          step.shifts.push_back(shift);
        }
      }
    }
    program.steps.push_back(std::move(step));
  }

  if (plan.reduce_group() > 1) {
    program.epilogue_rounds = plan.reduce_group() - 1;
    program.epilogue_chunk_bytes = CeilDiv(plan.output_plan().sub_bytes, plan.reduce_group());
  }
  return program;
}

}  // namespace t10
