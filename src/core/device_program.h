// Device programs: the result of lowering an execution plan onto the
// abstracted device interface of paper §4.4 (allocate / compute / shift) and
// the kernel structure of Figure 11.
//
// A lowered operator is a sequence of BSP steps. Each step holds one
// ComputeSet — homogeneous per-core sub-task vertices — followed by a set of
// ring shifts. Programs are position-independent descriptions; the
// ProgramExecutor (program_executor.h) binds them to a functional Machine,
// allocating real per-core buffers and moving real bytes through the bounded
// shift buffer.

#ifndef T10_SRC_CORE_DEVICE_PROGRAM_H_
#define T10_SRC_CORE_DEVICE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/plan.h"

namespace t10 {

// One tensor operand's distributed allocation: every core holds one window
// buffer of `window_bytes` (replicas share contents, not storage).
struct TensorAllocation {
  int operand = -1;  // Index into plan.tensors() (inputs..., output).
  std::string name;
  std::int64_t window_bytes = 0;
  // Rotation rings: each ring is an ordered list of core ids; the shift
  // instruction rotates the ring's window buffers downstream. Tensors with
  // ring_size == 1 have no rings.
  std::vector<std::vector<int>> rings;
};

// One per-core sub-task execution: all cores run the same vertex type on
// their local windows (a ComputeSet in IPU terms).
struct ComputeSet {
  SubTaskShape sub_task;   // Homogeneous shape of every vertex.
  std::int64_t vertices = 0;  // Number of cores participating.
};

// Rotate all rings of one tensor by its per-step slab (rp elements along
// rotating dim `dim`). A tensor rotating on several dims moves, per shift,
// within the sub-ring of cores that differ only in their `dim` coordinate.
struct ShiftSet {
  int operand = -1;
  int dim = -1;                 // The operand dim this shift rotates.
  std::int64_t slab_bytes = 0;  // Bytes each core sends this step.
};

struct ProgramStep {
  ComputeSet compute;
  std::vector<ShiftSet> shifts;
};

// A lowered operator: allocations + steps (+ the reduce-scatter epilogue
// rounds when reduction axes are spatially partitioned).
struct DeviceProgram {
  std::string op_name;
  std::int64_t cores_used = 0;
  std::vector<TensorAllocation> allocations;
  std::vector<ProgramStep> steps;
  std::int64_t epilogue_rounds = 0;      // reduce_group - 1, or 0.
  std::int64_t epilogue_chunk_bytes = 0; // Bytes shifted per round.

  // Total bytes a single core sends over the whole program.
  std::int64_t BytesSentPerCore() const;
  std::string DebugString() const;
};

// Lowers a plan to a device program. The returned program references no
// machine state; bind it with ProgramExecutor.
DeviceProgram LowerPlan(const ExecutionPlan& plan);

}  // namespace t10

#endif  // T10_SRC_CORE_DEVICE_PROGRAM_H_
