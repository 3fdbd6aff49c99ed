// Placement-geometry property tests (paper §4.4): for every valid plan, the
// initial placement must (a) assign each ring every window partition exactly
// once, (b) give co-rotating tensors co-starting windows, and (c) keep each
// core's sub-task inside all of its windows at every step — properties the
// byte-level executor tests exercise end-to-end and these tests check
// structurally.

#include "src/core/placement.h"

#include <gtest/gtest.h>

#include <set>

#include "src/core/device_program.h"
#include "src/core/search.h"
#include "src/ir/builder.h"

namespace t10 {
namespace {

void CheckGeometry(const ExecutionPlan& plan) {
  PlanGeometry geometry(plan);
  const int cores = geometry.num_cores();

  // Coordinates decode/encode consistently and offsets are slice-aligned.
  for (int c = 0; c < cores; ++c) {
    const auto& coord = geometry.Coord(c);
    std::int64_t encoded = 0;
    for (std::size_t a = 0; a < coord.size(); ++a) {
      EXPECT_GE(coord[a], 0);
      EXPECT_LT(coord[a], plan.fop()[a]);
      encoded = encoded * plan.fop()[a] + coord[a];
      EXPECT_EQ(geometry.Offset(c)[a], coord[a] * plan.axis_slices()[a]);
    }
    EXPECT_EQ(encoded, c);
  }

  for (int ti = 0; ti < geometry.num_operands(); ++ti) {
    const RTensorPlan& tp = plan.tensors()[static_cast<std::size_t>(ti)];
    // Every (sub-tensor, ring, position) triple is hit exactly once.
    std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
    for (int c = 0; c < cores; ++c) {
      const std::int64_t rank = geometry.SharingRank(ti, c);
      EXPECT_GE(rank, 0);
      EXPECT_LT(rank, tp.share_cores);
      EXPECT_EQ(geometry.RingIndex(ti, c), rank / tp.ring_size);
      EXPECT_EQ(geometry.RingPosition(ti, c), rank % tp.ring_size);
      auto key = std::make_tuple(geometry.SubTensorIndex(ti, c), geometry.RingIndex(ti, c),
                                 geometry.RingPosition(ti, c));
      EXPECT_TRUE(seen.insert(key).second) << "duplicate placement";
    }
    EXPECT_EQ(static_cast<std::int64_t>(seen.size()), cores);
  }

  // Within each ring, the windows tile the sub-tensor: the phases of ring
  // members along the rotating axis, sorted, step by exactly the window.
  for (int ti = 0; ti < geometry.num_operands(); ++ti) {
    const RTensorPlan& tp = plan.tensors()[static_cast<std::size_t>(ti)];
    if (tp.rotating_dims.size() != 1) {
      continue;
    }
    const int d = tp.rotating_dims.front();
    const int axis = geometry.Operand(ti).dims[d].axis;
    const std::int64_t w = tp.window[static_cast<std::size_t>(d)];
    std::map<std::pair<std::int64_t, std::int64_t>, std::set<std::int64_t>> ring_starts;
    for (int c = 0; c < cores; ++c) {
      ring_starts[{geometry.SubTensorIndex(ti, c), geometry.RingIndex(ti, c)}].insert(
          geometry.Phase(c)[static_cast<std::size_t>(axis)]);
    }
    for (const auto& [key, starts] : ring_starts) {
      ASSERT_EQ(static_cast<std::int64_t>(starts.size()), tp.ring_size);
      std::int64_t expected = *starts.begin();
      for (std::int64_t start : starts) {
        EXPECT_EQ(start % w, *starts.begin() % w) << "windows must be w-strided";
        EXPECT_EQ(start, expected);
        expected += w;
      }
    }
  }

  // Step counters sweep every combination exactly once.
  std::set<std::vector<std::int64_t>> counter_set;
  for (std::int64_t s = 0; s < plan.total_steps(); ++s) {
    EXPECT_TRUE(counter_set.insert(geometry.StepCounters(s)).second);
  }
}

TEST(PlacementTest, Figure7Geometry) {
  Operator op = MatMulOp("mm", 2, 6, 3, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  CheckGeometry(*plan);
  PlanGeometry geometry(*plan);
  // Co-start: A and B windows begin at the same phase on axis k for every
  // core (the property that makes Fig 7(d) executable).
  for (int c = 0; c < 6; ++c) {
    const std::int64_t phi = geometry.Phase(c)[static_cast<std::size_t>(op.FindAxis("k"))];
    EXPECT_GE(phi, 0);
    EXPECT_LT(phi, 6);
  }
}

TEST(PlacementTest, ReplicatedRingsShareStarts) {
  // P=8 shared cores, ring size 4, 2 replicas: both rings must enumerate the
  // same 4 window starts.
  Operator op = MatMulOp("mm", 8, 16, 8, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {1, 8, 1}, {{1, 4}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  CheckGeometry(*plan);
}

// Every plan the search proposes for a mix of operators must satisfy the
// structural placement invariants.
class SearchedPlacements : public ::testing::TestWithParam<int> {};

TEST(PlacementTest, DownstreamPositionStepsOneRingDim) {
  // A rotates along m and k: ring position p = 2 * pos_m + pos_k.
  Operator op = MatMulOp("mm", 8, 8, 8, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {1, 4, 1}, {{2, 2}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  CheckGeometry(*plan);
  PlanGeometry geometry(*plan);
  const std::vector<std::int64_t> along_m = {2, 3, 0, 1};
  const std::vector<std::int64_t> along_k = {1, 0, 3, 2};
  for (std::int64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(geometry.DownstreamPosition(0, p, 0), along_m[static_cast<std::size_t>(p)]) << p;
    EXPECT_EQ(geometry.DownstreamPosition(0, p, 1), along_k[static_cast<std::size_t>(p)]) << p;
  }
}

TEST(PlacementDeathTest, CoRotatingTensorsSharingASplitMissingAxisAreRejected) {
  // A[m,k] and B[k] both rotate along k, and both lack n, which is split:
  // no co-start phase serves both rings.
  const std::vector<Axis> axes = {{"m", 2, false}, {"k", 4, true}, {"n", 2, false}};
  Operator op("shared", OpKind::kContraction, axes,
              {TensorRef{"A", DataType::kF32, {DimRef{0}, DimRef{1}}},
               TensorRef{"B", DataType::kF32, {DimRef{1}}}},
              TensorRef{"C", DataType::kF32, {DimRef{0}, DimRef{2}}});
  auto plan = ExecutionPlan::Create(op, {1, 1, 2}, {{1, 2}, {2}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  EXPECT_DEATH(PlanGeometry{*plan}, "co-rotating tensors share missing axis n");
  EXPECT_DEATH(LowerPlan(*plan), "co-rotating tensors share missing axis n");
}

TEST_P(SearchedPlacements, AllParetoPlansValid) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = 24;
  chip.cores_per_chip = 24;
  GroundTruthTiming timing(chip);
  Operator op = [&]() -> Operator {
    switch (GetParam()) {
      case 0:
        return MatMulOp("mm", 8, 24, 6, DataType::kF32, "A", "B", "C");
      case 1:
        return Conv2dOp("conv", 2, 4, 6, 8, 8, 3, 3, DataType::kF32, "I", "W", "O");
      case 2:
        return BatchedMatMulOp("bmm", 3, 4, 8, 4, DataType::kF32, "A", "B", "C");
      default:
        return GatherOp("g", 24, 100, 16, DataType::kF16, "i", "t", "o");
    }
  }();
  SearchConstraints constraints;
  constraints.parallelism_fraction = 0.5;
  IntraOpResult result = SearchOperatorPlans(op, chip, timing, constraints);
  ASSERT_FALSE(result.pareto.empty());
  for (const PlanCandidate& candidate : result.pareto) {
    CheckGeometry(candidate.plan);
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, SearchedPlacements, ::testing::Range(0, 4));

}  // namespace
}  // namespace t10
