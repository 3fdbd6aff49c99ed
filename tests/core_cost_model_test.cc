#include "src/core/cost_model.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/util/math_util.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace t10 {
namespace {

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : truth_(ChipSpec::IpuMk2()), model_(FittedCostModel::Fit(truth_, 300, 17)) {}

  KernelGroundTruth truth_;
  FittedCostModel model_;
};

TEST_F(CostModelTest, ClassifyRoutesKernels) {
  SubTaskShape mm;
  mm.kind = OpKind::kContraction;
  mm.kernel_volume = 1;
  EXPECT_EQ(ClassifySubTask(mm), KernelClass::kMatMul);
  mm.kernel_volume = 9;
  EXPECT_EQ(ClassifySubTask(mm), KernelClass::kConv);
  SubTaskShape ew;
  ew.kind = OpKind::kElementwise;
  EXPECT_EQ(ClassifySubTask(ew), KernelClass::kElementwise);
}

// Fig 8: near-perfect accuracy for MatMul/elementwise/reduce, visibly worse
// for convolution (vendor black-box behaviour).
TEST_F(CostModelTest, MatMulFitNearPerfect) {
  EXPECT_GT(model_.RSquared(KernelClass::kMatMul), 0.995);
  EXPECT_GT(model_.RSquared(KernelClass::kElementwise), 0.995);
  EXPECT_GT(model_.RSquared(KernelClass::kReduce), 0.99);
}

TEST_F(CostModelTest, ConvFitWorseThanMatMul) {
  EXPECT_LT(model_.RSquared(KernelClass::kConv), model_.RSquared(KernelClass::kMatMul));
  // Still a usable signal (the paper: "even with slight inaccuracy, T10 can
  // still find sufficiently good execution plans").
  EXPECT_GT(model_.RSquared(KernelClass::kConv), 0.5);
}

TEST_F(CostModelTest, HeldOutMatMulErrorSmall) {
  auto samples = model_.HeldOutSamples(truth_, KernelClass::kMatMul, 100, 999);
  std::vector<double> actual;
  std::vector<double> predicted;
  for (const auto& s : samples) {
    actual.push_back(s.actual_seconds);
    predicted.push_back(s.predicted_seconds);
  }
  EXPECT_LT(MeanAbsolutePercentageError(actual, predicted), 8.0);
}

TEST_F(CostModelTest, HeldOutConvErrorLarger) {
  auto mm = model_.HeldOutSamples(truth_, KernelClass::kMatMul, 100, 999);
  auto conv = model_.HeldOutSamples(truth_, KernelClass::kConv, 100, 999);
  auto mape = [](const std::vector<FittedCostModel::Sample>& samples) {
    std::vector<double> actual;
    std::vector<double> predicted;
    for (const auto& s : samples) {
      actual.push_back(s.actual_seconds);
      predicted.push_back(s.predicted_seconds);
    }
    return MeanAbsolutePercentageError(actual, predicted);
  };
  EXPECT_GT(mape(conv), mape(mm));
}

TEST_F(CostModelTest, ShiftModelAccurate) {
  for (std::int64_t bytes : {64, 1024, 8192, 12000, 65536}) {
    double actual = truth_.ShiftSeconds(bytes);
    double predicted = model_.ShiftSeconds(bytes);
    EXPECT_NEAR(predicted / actual, 1.0, 0.05) << bytes << " bytes";
  }
  EXPECT_DOUBLE_EQ(model_.ShiftSeconds(0), 0.0);
}

TEST_F(CostModelTest, PredictionsArePositive) {
  Rng rng(5);
  for (int c = 0; c < kNumKernelClasses; ++c) {
    for (int i = 0; i < 50; ++i) {
      SubTaskShape shape = FittedCostModel::RandomShape(static_cast<KernelClass>(c), rng);
      EXPECT_GT(model_.SubTaskSeconds(shape), 0.0);
    }
  }
}

TEST_F(CostModelTest, CustomKernelOverrides) {
  FittedCostModel model = FittedCostModel::Fit(truth_, 100, 3);
  model.SetCustomKernel(KernelClass::kVendor,
                        [](const SubTaskShape&) { return 42.0; });
  SubTaskShape shape;
  shape.kind = OpKind::kVendor;
  shape.flops = 100;
  EXPECT_DOUBLE_EQ(model.SubTaskSeconds(shape), 42.0);
  // An opaque cost function proves no bound.
  EXPECT_EQ(model.SplitSecondsFloor(shape), -std::numeric_limits<double>::infinity());
}

// SplitSecondsFloor() must hold for every split its contract allows, not
// only the ones plans make: k steps whose flops sum to the floor's, whose
// bytes sum to 1x or 64x the floor's (a step re-reading a tensor it does not
// split), and, for a conv, whose kernel volume shrinks to 1 (a matmul step).
// Checked per class on the ground truth and on the two fits the search tests
// use: 240 samples (negative gather bytes coefficient) and 100 samples with
// seed 3 (negative conv and reduce bytes coefficients).
TEST_F(CostModelTest, SplitSecondsFloorBoundsEverySplit) {
  const GroundTruthTiming truth(truth_);
  const FittedCostModel fit240 = FittedCostModel::Fit(truth_, 240, 17);
  const FittedCostModel fit100 = FittedCostModel::Fit(truth_, 100, 3);
  Rng rng(11);
  for (const TimingSource* timing : {static_cast<const TimingSource*>(&truth),
                                     static_cast<const TimingSource*>(&fit240),
                                     static_cast<const TimingSource*>(&fit100)}) {
    for (int c = 0; c < kNumKernelClasses; ++c) {
      for (int i = 0; i < 50; ++i) {
        const SubTaskShape floor = FittedCostModel::RandomShape(static_cast<KernelClass>(c), rng);
        const double bound = timing->SplitSecondsFloor(floor);
        for (const std::int64_t k : {1, 2, 3, 8}) {
          for (const std::int64_t reread : {1, 64}) {
            for (const std::int64_t kernel_volume : {floor.kernel_volume, std::int64_t{1}}) {
              SubTaskShape step = floor;
              step.flops = floor.flops / static_cast<double>(k);
              step.in_bytes = CeilDiv(floor.in_bytes * reread, k);
              step.out_bytes = CeilDiv(floor.out_bytes * reread, k);
              step.kernel_volume = kernel_volume;
              const double seconds = static_cast<double>(k) * timing->SubTaskSeconds(step);
              ASSERT_GE(seconds, bound * (1.0 - 1e-12))
                  << KernelClassName(static_cast<KernelClass>(c)) << " k=" << k
                  << " reread=" << reread << " kernel_volume=" << kernel_volume;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace t10
