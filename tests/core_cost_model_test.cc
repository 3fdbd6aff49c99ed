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
  EXPECT_EQ(model.SplitSecondsFloor(shape, 1), -std::numeric_limits<double>::infinity());
}

// The timing sources a floor must hold on: the ground truth and the two fits
// the search tests use, 240 samples (negative gather bytes coefficient) and
// 100 samples with seed 3 (negative conv and reduce bytes coefficients).
struct FloorSources {
  explicit FloorSources(const KernelGroundTruth& truth)
      : truth(truth),
        fit240(FittedCostModel::Fit(truth, 240, 17)),
        fit100(FittedCostModel::Fit(truth, 100, 3)) {}
  std::vector<const TimingSource*> all() const { return {&truth, &fit240, &fit100}; }

  GroundTruthTiming truth;
  FittedCostModel fit240;
  FittedCostModel fit100;
};

// SplitSecondsFloor(floor, k) must hold for every split into exactly k steps
// its contract allows, not only the ones plans make: k steps whose flops sum
// to the floor's, whose bytes sum to 1x or 64x the floor's (a step re-reading
// a tensor it does not split), and, for a conv, whose kernel volume shrinks
// to 1 (a matmul step). It must not fall as k grows, as the search bounds
// every choice of an F_op with k = 1. Checked per class on each source.
TEST_F(CostModelTest, SplitSecondsFloorBoundsEverySplit) {
  const FloorSources sources(truth_);
  Rng rng(11);
  for (const TimingSource* timing : sources.all()) {
    for (int c = 0; c < kNumKernelClasses; ++c) {
      for (int i = 0; i < 50; ++i) {
        const SubTaskShape floor = FittedCostModel::RandomShape(static_cast<KernelClass>(c), rng);
        double previous = -std::numeric_limits<double>::infinity();
        for (const std::int64_t k : {1, 2, 3, 8, 64, 4096}) {
          const double bound = timing->SplitSecondsFloor(floor, k);
          ASSERT_GE(bound, previous) << KernelClassName(static_cast<KernelClass>(c)) << " k=" << k;
          previous = bound;
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

// ShiftSecondsFloor(n, B) must hold for every run of N >= n shifts of more
// than 0 bytes each whose bytes sum to at least B: random runs whose shifts
// fall below one shift-buffer chunk, above it, or both, with N = n or more,
// and B the run's bytes or less. Runs of n equal shifts below one chunk, as
// a rotation ships, cost the floor to within rounding on the ground truth
// and on both fits, whose shift coefficients are all >= 0, so the bound is
// tight where the search uses it. Checked on each source.
TEST_F(CostModelTest, ShiftSecondsFloorBoundsEveryShiftRun) {
  const std::int64_t chunk = truth_.chip().shift_buffer_bytes;
  const FloorSources sources(truth_);
  Rng rng(13);
  for (const TimingSource* timing : sources.all()) {
    EXPECT_EQ(timing->ShiftSecondsFloor(0, 0), 0.0);
    for (int i = 0; i < 400; ++i) {
      const std::int64_t n = rng.Uniform(1, 16);
      const std::int64_t extra = i % 3 == 0 ? 0 : rng.Uniform(1, 8);
      const int sizes = i % 4;  // Below a chunk, above it, either, or one size below.
      std::vector<std::int64_t> run;
      for (std::int64_t s = 0; s < n + extra; ++s) {
        const bool small = sizes == 0 || sizes == 3 || (sizes == 2 && rng.Uniform(0, 1) == 0);
        run.push_back(sizes == 3 && s > 0 ? run.front()
                      : small             ? rng.Uniform(1, chunk - 1)
                                          : rng.Uniform(chunk, 8 * chunk));
      }
      std::int64_t total = 0;
      double seconds = 0.0;
      for (const std::int64_t bytes : run) {
        total += bytes;
        seconds += timing->ShiftSeconds(bytes);
      }
      for (const std::int64_t bytes : {total, total / 2, std::int64_t{1}}) {
        const double bound = timing->ShiftSecondsFloor(n, bytes);
        ASSERT_GE(seconds, bound * (1.0 - 1e-12))
            << "n=" << n << " N=" << run.size() << " B=" << bytes << " of " << total;
      }
      if (sizes == 3 && extra == 0) {
        EXPECT_NEAR(timing->ShiftSecondsFloor(n, total) / seconds, 1.0, 1e-9)
            << "n=" << n << " shifts of " << run.front() << " B";
      }
    }
  }
}

}  // namespace
}  // namespace t10
