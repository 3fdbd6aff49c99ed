// Synthetic per-core kernel timing "ground truth".
//
// On real hardware, T10 profiles randomly-shaped sub-tasks on one IPU core
// and fits a linear cost model (paper §4.3.1). Without the hardware, this
// module plays the role of the hardware: a deterministic timing function for
// one core executing one sub-task. Its structure mirrors what the paper
// observed: MatMul/elementwise/reduce kernels are essentially affine in
// sub-task shape (so regression is near-perfect, Fig 8), while convolution
// kernels carry vendor black-box optimizations that a linear model cannot
// capture (so conv predictions scatter, Fig 8 rightmost panel).
//
// Determinism: the "measurement noise" is derived from a hash of the shape,
// so profiling the same shape twice returns the same time — the moral
// equivalent of an averaged profile on quiet hardware.

#ifndef T10_SRC_HARDWARE_KERNEL_TRUTH_H_
#define T10_SRC_HARDWARE_KERNEL_TRUTH_H_

#include <cstdint>

#include "src/hardware/chip_spec.h"
#include "src/ir/operator.h"

namespace t10 {

// Shape summary of one sub-task running on one core.
struct SubTaskShape {
  OpKind kind = OpKind::kElementwise;
  double flops = 0.0;          // Arithmetic work of the sub-task.
  std::int64_t in_bytes = 0;   // Bytes of input operands touched.
  std::int64_t out_bytes = 0;  // Bytes of output written.
  std::int64_t inner_length = 1;   // Innermost loop extent (vector alignment).
  std::int64_t kernel_volume = 1;  // Conv only: kh*kw*c of the sub-task.
};

class KernelGroundTruth {
 public:
  explicit KernelGroundTruth(const ChipSpec& chip);

  // "Measured" wall time (seconds) of one core executing the sub-task.
  double SubTaskSeconds(const SubTaskShape& shape) const;

  // A lower bound on the summed SubTaskSeconds() of a split of a sub-task
  // into `steps` steps; see TimingSource::SplitSecondsFloor().
  double SplitSecondsFloor(const SubTaskShape& floor, std::int64_t steps) const;

  // "Measured" time for one core to exchange `bytes` with a ring neighbour,
  // including BSP synchronization and the multi-copy shift-buffer iterations
  // (paper §5: source and destination overlap, so shifts run through a
  // bounded temporary buffer).
  double ShiftSeconds(std::int64_t bytes) const;

  // A lower bound on the summed ShiftSeconds() of a run of shifts; see
  // TimingSource::ShiftSecondsFloor().
  double ShiftSecondsFloor(std::int64_t shifts, std::int64_t bytes) const;

  const ChipSpec& chip() const { return chip_; }

 private:
  // SubTaskSeconds() before the conv black box and the noise factor: a
  // per-kind launch overhead (VertexOverhead()) plus per-flop and per-byte
  // times, all >= 0.
  double AffineSeconds(const SubTaskShape& shape) const;
  double NoiseFactor(const SubTaskShape& shape) const;

  ChipSpec chip_;
};

}  // namespace t10

#endif  // T10_SRC_HARDWARE_KERNEL_TRUTH_H_
