// TimingSource: the interface through which plan evaluation obtains per-core
// kernel and shift times. Two implementations exist:
//   - KernelGroundTruth (this directory): the "hardware" — what actually
//     happens when a plan runs on the simulated chip.
//   - FittedCostModel (src/core/cost_model.h): T10's linear-regression
//     predictor fitted from profiled sub-tasks (paper §4.3.1).
// Figure 8 is precisely the comparison of these two sources on the same
// sub-task shapes.

#ifndef T10_SRC_HARDWARE_TIMING_SOURCE_H_
#define T10_SRC_HARDWARE_TIMING_SOURCE_H_

#include <cstdint>

#include "src/hardware/kernel_truth.h"

namespace t10 {

class TimingSource {
 public:
  virtual ~TimingSource() = default;

  // Wall time (seconds) of one core executing one sub-task.
  virtual double SubTaskSeconds(const SubTaskShape& shape) const = 0;

  // Wall time (seconds) for one core to shift `bytes` to a ring neighbour.
  // Never negative.
  virtual double ShiftSeconds(std::int64_t bytes) const = 0;

  // A proven lower bound on the summed SubTaskSeconds() of any k >= 1 steps
  // that split a sub-task, given what every such split keeps (`floor`, see
  // SplitFloorShape() in src/core/plan.h): the steps are of its kind, each
  // has a kernel_volume of at most floor.kernel_volume, their flops sum to at
  // least floor.flops and their in_bytes + out_bytes to at least floor's. The
  // search drops plans on it unpriced, so it must hold for every split, not
  // just the ones seen; a source that cannot prove a bound returns -infinity.
  virtual double SplitSecondsFloor(const SubTaskShape& floor) const = 0;
};

// Adapter exposing the ground truth through the TimingSource interface.
class GroundTruthTiming final : public TimingSource {
 public:
  explicit GroundTruthTiming(const ChipSpec& chip) : truth_(chip) {}
  explicit GroundTruthTiming(KernelGroundTruth truth) : truth_(std::move(truth)) {}

  double SubTaskSeconds(const SubTaskShape& shape) const override {
    return truth_.SubTaskSeconds(shape);
  }
  double ShiftSeconds(std::int64_t bytes) const override { return truth_.ShiftSeconds(bytes); }
  double SplitSecondsFloor(const SubTaskShape& floor) const override {
    return truth_.SplitSecondsFloor(floor);
  }

  const KernelGroundTruth& truth() const { return truth_; }

 private:
  KernelGroundTruth truth_;
};

}  // namespace t10

#endif  // T10_SRC_HARDWARE_TIMING_SOURCE_H_
