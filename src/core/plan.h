// Compute-shift execution plans (paper §4.1-§4.2).
//
// A plan for one operator is defined by:
//   - F_op: the operator partition factor — how many spatial slices each
//     iteration axis is cut into. prod(F_op) sub-operators map 1:1 to cores.
//   - f_t per tensor: the temporal partition factor — how each shared
//     sub-tensor is split into a rotation ring among the cores that share it.
//   - rp per axis: the rotating pace, derived as the minimum window length of
//     the tensors rotating on that axis (paper: "T10 designates the rp as the
//     minimum of the sub-tensor partition lengths"), which maximizes compute
//     intensity while keeping every sub-task local.
//
// Derivation (paper §4.2 "Partitioning rTensors"): the spatial factor f_s of
// each tensor follows from F_op through the dimension-to-axis map. A tensor
// that lacks some axis of F_op is shared by P = prod(F_op over missing axes)
// cores; f_t splits its sub-tensor into prod(f_t) window partitions, forming
// P / prod(f_t) rotation rings, each ring holding one replica.
//
// Simplification vs the paper (documented in DESIGN.md): output tensors are
// never temporally partitioned. When reduction axes are spatially partitioned
// (group size G > 1), each core accumulates a private partial output and a
// ring reduce-scatter epilogue merges the G partials. The paper's worked
// examples (Figs 3, 7, 9, 10) all rotate inputs only.

#ifndef T10_SRC_CORE_PLAN_H_
#define T10_SRC_CORE_PLAN_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/hardware/chip_spec.h"
#include "src/hardware/timing_source.h"
#include "src/ir/operator.h"

namespace t10 {

// Derived partitioning geometry of one tensor operand under a plan. F_op
// alone fixes the first four fields (FopBase::Reset); the tensor's temporal
// factors fix the rest (ApplyTemporal).
struct RTensorPlan {
  std::vector<std::int64_t> spatial;    // f_s per dim (compound dims: product).
  std::vector<std::int64_t> sub_shape;  // Sub-tensor lengths per dim (padded).
  std::int64_t share_cores = 1;         // P: cores sharing one sub-tensor.
  std::int64_t sub_bytes = 0;           // Bytes of one sub-tensor.
  std::vector<std::int64_t> temporal;   // f_t per dim.
  std::vector<std::int64_t> window;     // Per-core held window per dim.
  std::int64_t ring_size = 1;           // prod(f_t): cores per rotation ring.
  std::int64_t replicas = 1;            // P / ring_size: rings (= data copies).
  std::int64_t window_bytes = 0;        // Bytes held per core.
  std::vector<int> rotating_dims;       // Dims with f_t > 1.
};

// One level of the compute-shift loop nest, outermost first.
struct RotationLoop {
  int axis = -1;          // Operator axis index.
  std::int64_t pace = 0;  // rp along this axis.
  std::int64_t steps = 0; // l_axis / rp iterations.
};

// Cost/footprint summary of a plan under a given TimingSource.
struct PlanMetrics {
  std::int64_t cores_used = 0;
  std::int64_t steps = 0;                 // Compute-shift steps (no epilogue).
  double compute_seconds = 0.0;
  double exchange_seconds = 0.0;          // Rotation shifts.
  double epilogue_seconds = 0.0;          // Reduce-scatter of partial outputs.
  std::int64_t per_core_bytes = 0;        // Active memory footprint per core.
  std::int64_t shift_bytes_per_core = 0;  // Total bytes each core sends.
  double padding_ratio = 1.0;             // 1.0 = no padding waste.
  // Cluster link tier (sharded compilation): bytes moved between chips and
  // the simulated link time they cost. Always 0 for single-chip plans, and
  // deliberately excluded from CompiledModel::Fingerprint() so single-chip
  // fingerprints are unchanged by the multi-chip machinery.
  std::int64_t interchip_bytes = 0;
  double interchip_seconds = 0.0;

  double total_seconds() const {
    return compute_seconds + exchange_seconds + epilogue_seconds + interchip_seconds;
  }
  // Average per-core link bandwidth achieved while shifting (Fig 14).
  double ExchangeBandwidth() const {
    double transfer = exchange_seconds + epilogue_seconds;
    if (transfer <= 0.0) {
      return 0.0;
    }
    return static_cast<double>(shift_bytes_per_core) / transfer;
  }
};

// The part of a plan that F_op alone fixes: axis slices, padding, cores, the
// reduce group, and each tensor's spatial fields (RTensorPlan's first four).
// ExecutionPlan::Rebuild() derives every plan from one; the search builds one
// per F_op and costs each temporal option against it without building a plan.
struct FopBase {
  const Operator* op = nullptr;
  std::vector<std::int64_t> fop;
  std::vector<std::int64_t> axis_slice;  // l_a per axis.
  std::int64_t cores_used = 0;
  std::int64_t reduce_group = 1;         // G: cores holding partial outputs.
  double padding_ratio = 1.0;
  // Inputs in operator order, then the output. The temporal fields hold what
  // ApplyTemporal() last wrote into each.
  std::vector<RTensorPlan> tensors;

  // Re-derives the base in place, reusing its vectors' storage. Returns false
  // if some factor lies outside [1, axis length].
  bool Reset(const Operator& op, std::span<const std::int64_t> fop);
};

// Tensor `ti` in tensors() order: inputs in operator order, then the output.
const TensorRef& Operand(const Operator& op, std::size_t ti);

// One rotating tensor dim, with what the pace, the loop order and the shift
// cost need of its tensor.
struct Rotation {
  int axis = -1;                  // Operator axis the dim runs along.
  std::int64_t window_len = 0;    // Window length along the dim.
  std::int64_t window_bytes = 0;  // The tensor's per-core window.
  std::int64_t sub_bytes = 0;     // The tensor's sub-tensor.
};

// The per-core window bytes of the tensor's temporal factors `ft` on `tp`,
// whose spatial fields are set, or -1 if the factors break an alignment
// rule: a split compound dim, a split output, a window that does not tile
// the sub-tensor, or rings that do not evenly cover the sharing cores.
std::int64_t TemporalWindowBytes(const TensorRef& tensor, bool is_output,
                                 std::span<const std::int64_t> ft, const RTensorPlan& tp);

// Fills the temporal fields of `tp`, whose spatial fields are set, from the
// tensor's temporal factors `ft`. Returns false, leaving `tp` as it was, if
// TemporalWindowBytes() rejects the factors.
bool ApplyTemporal(const TensorRef& tensor, bool is_output, std::span<const std::int64_t> ft,
                   RTensorPlan& tp);

// Appends to `rotations` one Rotation per dim that the temporal factors
// `ft` split, given `tp`'s spatial fields and the window bytes
// TemporalWindowBytes() accepted `ft` with.
void AppendRotations(const TensorRef& tensor, std::span<const std::int64_t> ft,
                     const RTensorPlan& tp, std::int64_t window_bytes,
                     std::vector<Rotation>& rotations);

// Derives the rotating pace of every axis (the minimum window among the dims
// rotating along it; 0 = not rotated) and the loop nest over rotated axes,
// outermost first, reusing the storage of both outputs.
void DeriveLoops(std::span<const std::int64_t> axis_slice, std::span<const Rotation> rotations,
                 std::vector<std::int64_t>& axis_pace, std::vector<RotationLoop>& loops);

// The reduce-scatter epilogue that merges G partial outputs: F_op fixes it.
struct EpilogueCost {
  double seconds = 0.0;
  std::int64_t bytes_per_core = 0;
};
EpilogueCost Epilogue(const FopBase& base, const TimingSource& timing);

// What every plan on `base` keeps of its compute, whatever it rotates: the
// steps of its compute-shift loop split the unrotated sub-task, so they share
// this shape's kind, each has a kernel_volume of at most this one's, their
// flops sum to at least its flops and their bytes to at least its in_bytes +
// out_bytes. Its bytes count the elements the sub-task touches, not the slabs
// it spans: a strided compound dim skips elements its slab spans, and a split
// of that dim can skip them. TimingSource::SplitSecondsFloor() prices it.
SubTaskShape SplitFloorShape(const FopBase& base);

// Costs a plan from its base, rotations and derived loops: the one cost
// formula behind ExecutionPlan::Evaluate() and the search's candidates.
PlanMetrics CostPlan(const FopBase& base, std::span<const Rotation> rotations,
                     std::span<const std::int64_t> axis_pace,
                     std::span<const RotationLoop> loops, std::int64_t per_core_bytes,
                     const EpilogueCost& epilogue, const TimingSource& timing);

class ExecutionPlan {
 public:
  // Builds a plan from F_op (one factor per operator axis) and per-tensor
  // temporal factors (inputs first, output last; the output entry must be all
  // ones). Returns nullopt if the combination violates an alignment or
  // divisibility rule — enumeration treats that as "not a plan" rather than
  // an error. Equivalent to Rebuild() on a fresh plan.
  static std::optional<ExecutionPlan> Create(
      const Operator& op, const std::vector<std::int64_t>& fop,
      const std::vector<std::vector<std::int64_t>>& temporal_factors);

  // Re-derives this plan in place, reusing the storage of its vectors: the
  // F_op base, then each tensor's temporal factors, then the loop nest.
  // Returns false on the same rule violations as Create(); the plan is then
  // unusable until the next successful Rebuild().
  bool Rebuild(const Operator& op, std::span<const std::int64_t> fop,
               std::span<const std::vector<std::int64_t>> temporal_factors);

  const Operator& op() const { return *base_.op; }

  // Binds this plan to `op`, an operator of the same signature as op() (one
  // Pareto set serves every operator of a signature). CHECK-fails unless the
  // axis lengths and roles and every operand's dim map are equal.
  void BindTo(const Operator& op);
  const std::vector<std::int64_t>& fop() const { return base_.fop; }
  // Padded per-core slice length of each axis: l_a = ceil(L_a / F_op[a]).
  const std::vector<std::int64_t>& axis_slices() const { return base_.axis_slice; }
  // Tensor plans: inputs in operator order, then the output.
  const std::vector<RTensorPlan>& tensors() const { return base_.tensors; }
  const RTensorPlan& output_plan() const { return base_.tensors.back(); }
  const std::vector<RotationLoop>& loops() const { return loops_; }
  std::int64_t cores_used() const { return base_.cores_used; }
  double padding_ratio() const { return base_.padding_ratio; }
  // G: number of cores holding partial outputs that the epilogue merges.
  std::int64_t reduce_group() const { return base_.reduce_group; }
  std::int64_t total_steps() const;

  // The shape of the per-step sub-task each core executes.
  SubTaskShape StepSubTask() const;

  // Active per-core memory footprint: all tensor windows + the output
  // sub-tensor + the reserved shift buffer.
  std::int64_t PerCoreBytes(const ChipSpec& chip) const;

  // Per-core bytes attributable to a specific operand (for idle-state weight
  // layouts). `tensor_index` follows tensors() ordering.
  std::int64_t OperandWindowBytes(int tensor_index) const;

  // Full cost evaluation under a timing source (ground truth = "measured",
  // fitted cost model = "predicted").
  PlanMetrics Evaluate(const TimingSource& timing, const ChipSpec& chip) const;

  std::string DebugString() const;

  // Default-constructed plans are invalid placeholders (op() is unset); only
  // plans returned by Create() or successfully Rebuild() may be evaluated.
  ExecutionPlan() = default;

 private:
  FopBase base_;  // Its tensors' temporal fields are this plan's.
  std::vector<Rotation> rotations_;
  std::vector<std::int64_t> axis_pace_;  // rp per axis (0 = not rotated).
  std::vector<RotationLoop> loops_;
};

}  // namespace t10

#endif  // T10_SRC_CORE_PLAN_H_
