// Negative tests for the static verifier (src/verify): each case hand-builds
// a malformed program / graph / memory plan / compiled model by mutating a
// known-good artifact and asserts the exact rule id that must fire. A few
// positive cases pin down that valid artifacts verify clean.

#include "src/verify/verifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/search.h"
#include "src/ir/builder.h"

namespace t10 {
namespace {

using verify::Severity;
using verify::Verifier;
using verify::VerifyResult;

ChipSpec SmallChip(int cores = 64) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.name = "small";
  chip.num_cores = cores;
  chip.cores_per_chip = cores;
  return chip;
}

// Figure 7's 2x3-core matmul: both inputs rotate, the output does not.
ExecutionPlan Figure7Plan() {
  static const Operator* op =
      new Operator(MatMulOp("mm", 2, 6, 3, DataType::kF32, "A", "B", "C"));
  auto plan = ExecutionPlan::Create(*op, {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}});
  EXPECT_TRUE(plan.has_value());
  return *plan;
}

Graph Mlp(std::int64_t batch = 32) {
  Graph g("mlp");
  g.Add(MatMulOp("fc1", batch, 256, 512, DataType::kF16, "x", "w1", "h1"));
  g.Add(ElementwiseOp("gelu", {batch, 512}, DataType::kF16, "h1", "h2", 8.0));
  g.Add(MatMulOp("fc2", batch, 512, 256, DataType::kF16, "h2", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  return g;
}

TEST(VerifyPlanTest, ValidPlanVerifiesClean) {
  ExecutionPlan plan = Figure7Plan();
  Verifier verifier(SmallChip());
  VerifyResult result = verifier.VerifyPlan(plan);
  EXPECT_TRUE(result.ok()) << result.Listing();
  result.Merge(verifier.VerifyProgram(LowerPlan(plan), plan));
  EXPECT_TRUE(result.ok()) << result.Listing();
}

TEST(VerifyPlanTest, CapacityOverflowFires) {
  ExecutionPlan plan = Figure7Plan();
  ChipSpec tiny = SmallChip();
  tiny.core_memory_bytes = 16;  // Smaller than any window set.
  Verifier verifier(tiny);
  EXPECT_TRUE(verifier.VerifyPlan(plan).HasRule("plan.capacity"));
  EXPECT_TRUE(
      verifier.VerifyProgram(LowerPlan(plan), plan).HasRule("program.capacity"));
}

TEST(VerifyPlanTest, DegradedChipRejectsFullWidthPlan) {
  // Figure 7's plan spans 6 cores; with one of 6 cores masked out by the
  // health state only 5 survive, so the plan must be rejected until it is
  // recompiled against the surviving topology.
  ExecutionPlan plan = Figure7Plan();
  ChipSpec chip = SmallChip(6);
  chip.health.failed_cores = {2};
  Verifier verifier(chip);
  EXPECT_TRUE(verifier.VerifyPlan(plan).HasRule("plan.degraded-cores"));
  // A healthy chip of the same size accepts it.
  EXPECT_TRUE(Verifier(SmallChip(6)).VerifyPlan(plan).ok());
}

TEST(VerifyPlanTest, FootprintMatchesPlanAccountingPlusStaging) {
  ExecutionPlan plan = Figure7Plan();
  const ChipSpec chip = SmallChip();
  // The footprint model differs from the plan's own accounting only by
  // allocator alignment: at most 8 bytes per operand buffer plus the
  // staging buffer.
  const std::int64_t footprint = verify::ProgramFootprintBytes(plan, chip);
  const std::int64_t accounted = plan.PerCoreBytes(chip);
  EXPECT_GE(footprint, accounted);
  EXPECT_LE(footprint - accounted,
            8 * static_cast<std::int64_t>(plan.tensors().size() + 1));
}

TEST(VerifyPlanTest, FaultTolerantFootprintAddsOneSpareWindowPerOperand) {
  ExecutionPlan plan = Figure7Plan();
  const ChipSpec chip = SmallChip();
  std::int64_t spares = 0;
  for (const RTensorPlan& tp : plan.tensors()) {
    spares += (std::max<std::int64_t>(tp.window_bytes, 8) + 7) / 8 * 8;
  }
  EXPECT_EQ(verify::ProgramFootprintBytes(plan, chip, /*fault_tolerant=*/true),
            verify::ProgramFootprintBytes(plan, chip) + spares);
}

struct ProgramMutationCase {
  const char* name;
  std::function<void(DeviceProgram&)> mutate;
  const char* expected_rule;
};

// Without a printer gtest lists the parameter as its raw bytes, which start
// with the address of the name literal; that address moves whenever the
// linked code or the build directory changes, so the listed test names
// would not be stable. Print the case name.
void PrintTo(const ProgramMutationCase& c, std::ostream* os) { *os << c.name; }

class VerifyProgramMutationTest : public ::testing::TestWithParam<ProgramMutationCase> {};

TEST_P(VerifyProgramMutationTest, FiresExpectedRule) {
  ExecutionPlan plan = Figure7Plan();
  DeviceProgram program = LowerPlan(plan);
  GetParam().mutate(program);
  Verifier verifier(SmallChip());
  const VerifyResult result = verifier.VerifyProgram(program, plan);
  EXPECT_TRUE(result.HasRule(GetParam().expected_rule))
      << "expected " << GetParam().expected_rule << ", got:\n"
      << result.Listing();
  EXPECT_FALSE(result.ok());
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, VerifyProgramMutationTest,
    ::testing::Values(
        ProgramMutationCase{"duplicate_ring_core",
                            [](DeviceProgram& p) {
                              // Core appears twice in one ring: it receives
                              // two slabs per shift, another core none.
                              p.allocations[0].rings[0][0] =
                                  p.allocations[0].rings[0][1];
                            },
                            "program.ring-conservation"},
        ProgramMutationCase{"dropped_ring",
                            [](DeviceProgram& p) { p.allocations[1].rings.pop_back(); },
                            "program.ring-structure"},
        ProgramMutationCase{"ring_core_out_of_range",
                            [](DeviceProgram& p) { p.allocations[0].rings[0][0] = 99; },
                            "program.ring-structure"},
        ProgramMutationCase{"misaligned_slab",
                            [](DeviceProgram& p) {
                              // Not a whole-pace slab of any rotating dim.
                              p.steps[0].shifts[0].slab_bytes += 4;
                            },
                            "program.slab-alignment"},
        ProgramMutationCase{"missing_step",
                            [](DeviceProgram& p) { p.steps.pop_back(); },
                            "program.step-count"},
        ProgramMutationCase{"missing_shift",
                            [](DeviceProgram& p) {
                              // One operand under-shifts: the next step would
                              // deadlock waiting for data that never arrives.
                              p.steps[1].shifts.pop_back();
                            },
                            "program.step-count"},
        ProgramMutationCase{"duplicated_shift",
                            [](DeviceProgram& p) {
                              p.steps[1].shifts.push_back(p.steps[1].shifts[0]);
                            },
                            "program.traffic-accounting"},
        ProgramMutationCase{"shift_of_unknown_operand",
                            [](DeviceProgram& p) { p.steps[0].shifts[0].operand = 7; },
                            "program.shift-operand"},
        ProgramMutationCase{"shift_of_static_operand",
                            [](DeviceProgram& p) {
                              p.steps[0].shifts[0].operand = 2;  // Output: no ring.
                            },
                            "program.shift-operand"},
        ProgramMutationCase{"shift_along_static_dim",
                            [](DeviceProgram& p) {
                              // Figure 7's A and B each rotate one of their
                              // two dims; name the other one.
                              ShiftSet& shift = p.steps[0].shifts[0];
                              shift.dim = 1 - shift.dim;
                            },
                            "program.shift-operand"},
        ProgramMutationCase{"wrong_compute_vertices",
                            [](DeviceProgram& p) { p.steps[2].compute.vertices = 1; },
                            "program.compute-vertices"},
        ProgramMutationCase{"wrong_allocation_bytes",
                            [](DeviceProgram& p) { p.allocations[2].window_bytes *= 2; },
                            "program.allocation"},
        ProgramMutationCase{"phantom_epilogue",
                            [](DeviceProgram& p) { p.epilogue_rounds = 3; },
                            "program.epilogue"}),
    [](const ::testing::TestParamInfo<ProgramMutationCase>& info) {
      return info.param.name;
    });

TEST(VerifyGraphTest, ValidGraphVerifiesClean) {
  Graph graph = Mlp();
  const VerifyResult result = Verifier(SmallChip()).VerifyGraph(graph);
  EXPECT_TRUE(result.empty()) << result.Listing();
}

TEST(VerifyGraphTest, DtypeMismatchFires) {
  Graph graph = Mlp();
  graph.mutable_tensor("h1").dtype = DataType::kF32;
  EXPECT_TRUE(Verifier(SmallChip()).VerifyGraph(graph).HasRule("graph.dtype-mismatch"));
}

TEST(VerifyGraphTest, ShapeMismatchFires) {
  Graph graph = Mlp();
  graph.mutable_tensor("w1").shape = {256, 999};
  EXPECT_TRUE(Verifier(SmallChip()).VerifyGraph(graph).HasRule("graph.shape-mismatch"));
}

TEST(VerifyGraphTest, DanglingOperandFires) {
  Graph graph = Mlp();
  // "h2" claims to be produced by its own consumer: a use-before-def cycle.
  graph.mutable_tensor("h2").producer = 2;
  EXPECT_TRUE(Verifier(SmallChip()).VerifyGraph(graph).HasRule("graph.dangling-operand"));
}

TEST(VerifyGraphTest, LostConsumerBookkeepingFires) {
  Graph graph = Mlp();
  graph.mutable_tensor("h1").consumers.clear();
  EXPECT_TRUE(Verifier(SmallChip()).VerifyGraph(graph).HasRule("graph.dangling-operand"));
}

TEST(VerifyGraphTest, ProducedWeightFires) {
  Graph graph = Mlp();
  graph.mutable_tensor("h1").is_weight = true;
  EXPECT_TRUE(Verifier(SmallChip()).VerifyGraph(graph).HasRule("graph.dangling-operand"));
}

TEST(VerifyMemoryPlanTest, OverlapAndPeakRulesFire) {
  MemoryPlan plan;
  plan.capacity = 1024;
  // Two intervals live at op 1 sharing addresses [0, 64).
  plan.intervals.push_back(MemoryInterval{"a", 0, 64, 0, 1, false});
  plan.intervals.push_back(MemoryInterval{"b", 32, 64, 1, 2, false});
  plan.peak_bytes = 128;
  plan.fits = true;
  const VerifyResult result = Verifier(SmallChip()).VerifyMemoryPlan(plan);
  EXPECT_TRUE(result.HasRule("memplan.overlap")) << result.Listing();

  MemoryPlan disjoint = plan;
  disjoint.intervals[1].offset = 64;
  disjoint.peak_bytes = 999;  // Recorded peak disagrees with the interval set.
  EXPECT_TRUE(
      Verifier(SmallChip()).VerifyMemoryPlan(disjoint).HasRule("memplan.peak"));

  disjoint.peak_bytes = 128;
  EXPECT_TRUE(Verifier(SmallChip()).VerifyMemoryPlan(disjoint).ok());

  MemoryPlan malformed = disjoint;
  malformed.intervals[0].bytes = 0;
  EXPECT_TRUE(
      Verifier(SmallChip()).VerifyMemoryPlan(malformed).HasRule("memplan.interval"));
}

class VerifyModelTest : public ::testing::Test {
 protected:
  VerifyModelTest() : chip_(SmallChip()), graph_(Mlp()), verifier_(chip_) {
    Compiler compiler(chip_);
    model_ = compiler.Compile(graph_);
    EXPECT_TRUE(model_.fits);
  }

  ChipSpec chip_;
  Graph graph_;
  Verifier verifier_;
  CompiledModel model_;
};

TEST_F(VerifyModelTest, CompiledModelVerifiesClean) {
  const VerifyResult result = verifier_.VerifyAll(model_, graph_);
  EXPECT_TRUE(result.ok()) << result.Listing();
}

TEST_F(VerifyModelTest, SetupAccountingMismatchFires) {
  model_.ops[0].setup_bytes += 64;
  EXPECT_TRUE(
      verifier_.VerifyModel(model_, graph_).HasRule("model.setup-accounting"));
}

TEST_F(VerifyModelTest, IdleFootprintMismatchFires) {
  model_.idle_bytes_per_core += 8;
  EXPECT_TRUE(verifier_.VerifyModel(model_, graph_).HasRule("model.idle-footprint"));
}

TEST_F(VerifyModelTest, NonMonotoneTrajectoryFires) {
  ASSERT_FALSE(model_.reconcile_trajectory.empty());
  ReconcileStep shrunk = model_.reconcile_trajectory.back();
  shrunk.idle_bytes_per_core -= 1;
  shrunk.feasible = false;
  model_.reconcile_trajectory.push_back(shrunk);
  EXPECT_TRUE(
      verifier_.VerifyModel(model_, graph_).HasRule("model.reconcile-monotone"));
}

TEST_F(VerifyModelTest, OpOrderMismatchFires) {
  model_.ops[1].op_index = 0;
  EXPECT_TRUE(verifier_.VerifyModel(model_, graph_).HasRule("model.op-order"));
}

TEST_F(VerifyModelTest, MetricsMismatchFires) {
  model_.ops[0].measured.steps += 1;
  EXPECT_TRUE(verifier_.VerifyModel(model_, graph_).HasRule("model.metrics-mismatch"));
}

TEST_F(VerifyModelTest, ClaimedFitWithOversizedPeakFires) {
  model_.memory_peak_bytes = chip_.core_memory_bytes + 1;
  EXPECT_TRUE(verifier_.VerifyModel(model_, graph_).HasRule("model.memory-peak"));
}

TEST_F(VerifyModelTest, PlanBoundToForeignGraphFires) {
  const Graph other = Mlp();  // Identical structure, different Operator storage.
  EXPECT_TRUE(verifier_.VerifyModel(model_, other).HasRule("model.plan-binding"));
}

TEST(VerifyResultTest, StrictModePromotesWarnings) {
  VerifyResult result;
  verify::DiagnosticBuilder(result, "plan.padding", "mm", Severity::kWarning)
      << "padding wastes most of the footprint";
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.ok(Severity::kWarning));
  EXPECT_EQ(result.warnings(), 1);
  EXPECT_EQ(result.errors(), 0);
}

TEST(VerifyResultTest, DiagnosticFormatting) {
  VerifyResult result;
  verify::DiagnosticBuilder(result, "program.capacity", "fc1")
          .Step(3)
          .Core(7)
          .Hint("shrink the windows")
      << "footprint 1000B exceeds 624B";
  ASSERT_EQ(result.diagnostics().size(), 1u);
  EXPECT_EQ(result.diagnostics()[0].Format(),
            "error[program.capacity] fc1 step 3 core 7: footprint 1000B exceeds 624B "
            "(hint: shrink the windows)");
  EXPECT_NE(result.Listing().find("1 error(s), 0 warning(s)"), std::string::npos);
}

}  // namespace
}  // namespace t10
