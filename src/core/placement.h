// Sub-tensor placement geometry (paper §4.4, Figure 10).
//
// Shared by lowering (LowerPlan) and the byte-level ProgramExecutor so both
// derive the identical initial placement:
//   - every core's grid coordinate and global axis offsets,
//   - each tensor's ring rank / ring position per core, and
//   - the co-start phase phi_a(core): along every rotated axis, all tensors
//     rotating on that axis start their windows at the same phase
//         phi_a(core) = sum over rotating tensors X of pos_X(core) * w_X  (mod l_a),
//     where pos_X is the core's coordinate along X's rotating dim on axis a.
//     A ring position is row-major over the tensor's rotating dims (the
//     last one innermost), so a ring of f_t0 x f_t1 cores is a 2-D torus.
//     The phase makes every ring cover all partitions exactly once and keeps
//     every step's sub-task inside every window simultaneously (the
//     construction generalizes Figure 10). It requires that no two operands
//     share a spatially split missing axis while some axis has several
//     rotating tensors; the constructor CHECKs that.

#ifndef T10_SRC_CORE_PLACEMENT_H_
#define T10_SRC_CORE_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "src/core/plan.h"

namespace t10 {

class PlanGeometry {
 public:
  explicit PlanGeometry(const ExecutionPlan& plan);

  const ExecutionPlan& plan() const { return *plan_; }
  int num_cores() const { return static_cast<int>(plan_->cores_used()); }
  int num_operands() const { return static_cast<int>(plan_->tensors().size()); }

  // Grid coordinate of `core` along each operator axis (row-major layout).
  const std::vector<std::int64_t>& Coord(int core) const;
  // Global element offset of the core's slice along each axis.
  const std::vector<std::int64_t>& Offset(int core) const;
  // Co-start phase per axis (0 for non-rotated axes).
  const std::vector<std::int64_t>& Phase(int core) const;

  // Rank of `core` within operand's sharing group (row-major over the
  // operand's missing axes), in [0, share_cores).
  std::int64_t SharingRank(int operand, int core) const;
  // Ring index (= replica index) and position within the ring.
  std::int64_t RingIndex(int operand, int core) const;
  std::int64_t RingPosition(int operand, int core) const;

  // Identifier of the sub-tensor the core holds for this operand (cores with
  // equal coordinates on the operand's used axes share a sub-tensor).
  std::int64_t SubTensorIndex(int operand, int core) const;

  // The ring position a core at `position` ships its head slab to when the
  // operand rotates along its k-th rotating dim: the other rotating dims'
  // coordinates stay fixed and dim k's decrements (mod its f_t).
  std::int64_t DownstreamPosition(int operand, std::int64_t position, std::size_t k) const;

  // The loop counter values (outer->inner) at global step `s`.
  std::vector<std::int64_t> StepCounters(std::int64_t step) const;

  // Loop index handling rotated axis `axis`, or -1.
  int LoopOfAxis(int axis) const;

  // The operand TensorRef (inputs..., output).
  const TensorRef& Operand(int operand) const;

 private:
  const ExecutionPlan* plan_;
  std::vector<const TensorRef*> operands_;
  std::vector<std::vector<std::int64_t>> coords_;
  std::vector<std::vector<std::int64_t>> offsets_;
  std::vector<std::vector<std::int64_t>> phases_;
  std::vector<std::vector<std::int64_t>> sharing_rank_;   // [operand][core].
  std::vector<std::vector<std::int64_t>> subtensor_idx_;  // [operand][core].
  std::vector<int> axis_loop_;
  std::vector<std::int64_t> loop_stride_;  // stride[i] = prod steps of inner loops.
};

}  // namespace t10

#endif  // T10_SRC_CORE_PLACEMENT_H_
