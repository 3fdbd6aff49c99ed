// T10's cost model (paper §4.3.1).
//
// The distributed on-chip architecture makes per-step execution fully
// deterministic: each compute step touches only core-local memory and each
// shift moves a statically known number of bytes. T10 exploits this by
// profiling randomly-shaped sub-tasks "on a single IPU core" (here: the
// KernelGroundTruth), fitting one linear regression per kernel class, and a
// separate linear model for inter-core transfer time. Plans are then costed
// entirely from the fitted models, which is what makes exploring 10^4
// filtered plans in seconds feasible (Fig 18/19).

#ifndef T10_SRC_CORE_COST_MODEL_H_
#define T10_SRC_CORE_COST_MODEL_H_

#include <array>
#include <functional>
#include <vector>

#include "src/hardware/timing_source.h"
#include "src/util/regression.h"

namespace t10 {

// Kernel families that get independent cost models. Convolution is separated
// from plain contraction because its vendor kernel has black-box behaviour
// the linear model cannot capture (Fig 8).
enum class KernelClass {
  kMatMul = 0,
  kConv = 1,
  kElementwise = 2,
  kReduce = 3,
  kGather = 4,
  kVendor = 5,
};
inline constexpr int kNumKernelClasses = 6;

const char* KernelClassName(KernelClass cls);

// Which cost model a sub-task shape is routed to.
KernelClass ClassifySubTask(const SubTaskShape& shape);

class FittedCostModel final : public TimingSource {
 public:
  // Profiles `samples_per_class` random sub-task shapes per kernel class on
  // the ground truth and fits the regressions. CHECK-fails if any fit is
  // singular (cannot happen with the default sample counts).
  static FittedCostModel Fit(const KernelGroundTruth& truth, int samples_per_class = 240,
                             std::uint64_t seed = 17);

  // TimingSource: regression predictions (clamped to a small positive floor).
  double SubTaskSeconds(const SubTaskShape& shape) const override;
  double ShiftSeconds(std::int64_t bytes) const override;
  // Per class the steps can fall in: `steps` times the 100 ns floor every
  // prediction is clamped to, or, if the class's coefficients are all >= 0,
  // the larger of that and the prediction for the floor's features plus
  // steps - 1 intercepts; -infinity for a custom kernel.
  double SplitSecondsFloor(const SubTaskShape& floor, std::int64_t steps) const override;
  // `shifts` times the 100 ns clamp, or, if the shift model's coefficients
  // are all >= 0, the larger of that and `shifts` intercepts plus the bytes
  // term of `bytes` plus the iterations term of max(shifts, its iterations).
  double ShiftSecondsFloor(std::int64_t shifts, std::int64_t bytes) const override;

  // Training-set goodness of fit per class (Fig 8 reports these).
  double RSquared(KernelClass cls) const;

  // Users with custom kernels can register their own cost function for a
  // class, overriding the fitted regression (paper §4.3.1: "an interface is
  // exposed for users to implement custom cost functions").
  void SetCustomKernel(KernelClass cls, std::function<double(const SubTaskShape&)> fn);

  // One held-out evaluation point: a fresh random shape of the class, with
  // the ground-truth ("measured") and predicted times.
  struct Sample {
    SubTaskShape shape;
    double actual_seconds = 0.0;
    double predicted_seconds = 0.0;
  };

  // Draws `count` fresh shapes per class and reports measured vs predicted
  // (the data behind Fig 8's scatter plots).
  std::vector<Sample> HeldOutSamples(const KernelGroundTruth& truth, KernelClass cls, int count,
                                     std::uint64_t seed = 1001) const;

  // Generates a random sub-task shape of the given class (shared by fitting
  // and held-out evaluation).
  static SubTaskShape RandomShape(KernelClass cls, class Rng& rng);

 private:
  FittedCostModel() = default;

  static std::array<double, 3> Features(const SubTaskShape& shape);

  std::array<LinearRegression, kNumKernelClasses> kernel_models_;
  std::array<double, kNumKernelClasses> r_squared_ = {};
  std::array<std::function<double(const SubTaskShape&)>, kNumKernelClasses> custom_;
  LinearRegression shift_model_;
  std::int64_t shift_chunk_bytes_ = 8192;
};

}  // namespace t10

#endif  // T10_SRC_CORE_COST_MODEL_H_
