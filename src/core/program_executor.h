// ProgramExecutor: binds a lowered DeviceProgram to a functional Machine and
// runs it with real bytes — per-core window buffers in the simulated
// scratchpads, slab shifts through bounded staging buffers, local window
// compaction, and per-core sub-task vertices reading exclusively from local
// memory. It *cannot* cheat: each vertex only sees its core's buffers, and
// every element a vertex reads is checked to lie inside the core's current
// window. Tests compare its output against ReferenceExecute (host_tensor.h).
//
// Fault tolerance (FaultToleranceOptions): with a fault::FaultInjector
// attached to the machine, every slab delivery goes through the checksummed
// reliable-transfer layer (bounded retry + exponential backoff), ring state
// is checkpointed every few steps into a designated spare region of each
// core's scratchpad, and retry exhaustion rolls the whole program back to
// the last checkpoint and re-executes. Persistent faults (downed cores or
// links) are not retried — they surface as kUnavailable, the signal for the
// compiler's degraded re-planning. A core_map lets a plan compiled for the
// surviving topology run on a machine whose failed cores are skipped.
//
// Supported: FP32 operands, kContraction / kElementwise / kReduceSum, and
// every temporal split the plan space allows — any number of rotating dims
// per tensor, each on its own axis. A tensor rotating on several dims forms
// a multi-dimensional ring (placement.h); each ShiftSet rotates one dim,
// within the sub-ring of cores that differ only in that dim's coordinate.
// The reduce-scatter epilogue is folded into the host-side output merge; its
// cost is modelled by ExecutionPlan::Evaluate and its byte mechanics by the
// ring tests in sim_machine_test.

#ifndef T10_SRC_CORE_PROGRAM_EXECUTOR_H_
#define T10_SRC_CORE_PROGRAM_EXECUTOR_H_

#include <vector>

#include "src/core/device_program.h"
#include "src/core/host_tensor.h"
#include "src/core/placement.h"
#include "src/obs/journal.h"
#include "src/obs/span.h"
#include "src/sim/machine.h"
#include "src/util/status.h"

namespace t10 {

// Recovery policy for byte-level execution under injected faults.
struct FaultToleranceOptions {
  bool enabled = false;
  RetryPolicy retry;                  // Per-transfer checksum retry budget.
  int checkpoint_interval_steps = 4;  // Ring-state snapshot cadence.
  int max_rollbacks = 16;             // Checkpoint restarts before giving up.
};

struct ProgramRunStats {
  std::int64_t steps = 0;
  std::int64_t shift_rounds = 0;        // Bounded-buffer delivery rounds.
  std::int64_t bytes_sent_total = 0;    // Sum over cores, from the Machine.
  std::int64_t peak_core_bytes = 0;     // Max scratchpad use observed.
  std::int64_t retries = 0;             // Checksummed re-sends (this run).
  std::int64_t checkpoints = 0;         // Ring-state snapshots taken.
  std::int64_t rollbacks = 0;           // Checkpoint restarts performed.
  double fault_penalty_seconds = 0.0;   // Backoff + stall time (this run).
};

class ProgramExecutor {
 public:
  // The machine must have at least plan.cores_used() cores; buffers are
  // allocated in Run() and released before it returns. `core_map`, when
  // non-empty, maps the plan's logical cores onto physical machine cores
  // (degraded execution: ChipSpec::UsableCoreIds()); entries must be
  // distinct, in range, and cover plan.cores_used().
  ProgramExecutor(Machine& machine, const ExecutionPlan& plan,
                  FaultToleranceOptions fault_tolerance = {},
                  std::vector<int> core_map = {});

  // Attaches request-scoped tracing (inactive context and/or null journal =
  // no-op): Run emits one coarse span per checkpoint-interval step group
  // under `trace`, and rollback / fault events into `journal`.
  void SetTrace(const obs::TraceContext& trace, obs::EventJournal* journal);

  // Executes the program over the operator's inputs; returns the output.
  // Errors are operational, not bugs: wrong input arity or shapes
  // (kInvalidArgument), scratchpad exhaustion
  // (kResourceExhausted), transient-fault retries and rollbacks exhausted
  // (kDataLoss), persistently failed core/link in the path (kUnavailable).
  StatusOr<HostTensor> Run(const std::vector<HostTensor>& inputs,
                           ProgramRunStats* stats = nullptr);

  const DeviceProgram& program() const { return program_; }

 private:
  StatusOr<HostTensor> RunImpl(const std::vector<HostTensor>& inputs, ProgramRunStats* stats,
                               std::vector<BufferHandle>& owned);

  // Physical machine core backing logical plan core `core`.
  int Phys(int core) const {
    return core_map_.empty() ? core : core_map_[static_cast<std::size_t>(core)];
  }

  Machine& machine_;
  const ExecutionPlan& plan_;
  DeviceProgram program_;
  PlanGeometry geometry_;
  FaultToleranceOptions ft_;
  std::vector<int> core_map_;
  obs::TraceContext trace_;
  obs::EventJournal* journal_ = nullptr;
};

}  // namespace t10

#endif  // T10_SRC_CORE_PROGRAM_EXECUTOR_H_
