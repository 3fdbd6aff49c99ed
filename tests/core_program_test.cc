// Lowering (§4.4) and byte-level execution tests: plans are lowered to
// device programs (allocations, rings, ComputeSets, ShiftSets) and executed
// on the functional Machine with real scratchpad buffers and bounded-buffer
// slab delivery. Outputs must match the single-core reference, and the
// traffic observed on the machine must match the plan's analytic accounting.

#include "src/core/program_executor.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "src/core/search.h"
#include "src/fault/fault_plan.h"
#include "src/ir/builder.h"

namespace t10 {
namespace {

ChipSpec TinyChip(int cores) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.name = "tiny";
  chip.num_cores = cores;
  chip.cores_per_chip = cores;
  return chip;
}

std::vector<HostTensor> RandomInputs(const Operator& op, std::uint64_t seed) {
  std::vector<HostTensor> inputs;
  for (std::size_t i = 0; i < op.inputs().size(); ++i) {
    inputs.push_back(RandomHostTensor(TensorShape(op.axes(), op.inputs()[i]), seed + i));
  }
  return inputs;
}

void ExpectTensorsNear(const HostTensor& a, const HostTensor& b, double tolerance = 1e-3) {
  ASSERT_EQ(a.shape, b.shape);
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_NEAR(a.data[i], b.data[i], tolerance) << "element " << i;
  }
}

// One hand-picked plan of the ProgramExecutorTest battery.
struct BatteryCase {
  std::string name;
  Operator op;
  std::vector<std::int64_t> fop;
  std::vector<std::vector<std::int64_t>> ft;
  std::int64_t shift_buffer_bytes = 0;  // 0: the chip's default staging buffer.
};

const std::vector<BatteryCase>& Battery() {
  static const std::vector<BatteryCase> battery = [] {
    const auto mm = [](std::int64_t m, std::int64_t k, std::int64_t n) {
      return MatMulOp("mm", m, k, n, DataType::kF32, "A", "B", "C");
    };
    std::vector<BatteryCase> cases;
    cases.push_back({"Figure7MatMul", mm(2, 6, 3), {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}}});
    cases.push_back({"MismatchedWindows", mm(4, 12, 6), {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}}});
    cases.push_back({"ReplicatedNoRotation", mm(8, 8, 8), {4, 1, 1}, {{1, 1}, {1, 1}, {1, 1}}});
    cases.push_back({"SpatialReduction", mm(4, 16, 4), {2, 2, 4}, {{1, 1}, {1, 1}, {1, 1}}});
    cases.push_back({"RotationPlusReduction", mm(2, 8, 4), {2, 2, 2}, {{1, 2}, {1, 1}, {1, 1}}});
    cases.push_back({"TwoRotatingTensors", mm(4, 8, 8), {4, 2, 1}, {{1, 2}, {1, 2}, {1, 1}}});
    // A rotates along both m and k: a 2x2 ring of 4 cores.
    cases.push_back({"MultiDimTemporal", mm(8, 8, 8), {1, 4, 1}, {{2, 2}, {1, 1}, {1, 1}}});
    cases.push_back({"PaddedAxes", mm(5, 6, 3), {2, 3, 1}, {{1, 3}, {1, 1}, {1, 1}}});
    cases.push_back({"PaddedRotationPlusReduction", mm(5, 12, 7), {2, 2, 2},
                     {{1, 2}, {2, 1}, {1, 1}}});
    cases.push_back({"ConvWithWeightRotation",
                     Conv2dOp("conv", 1, 2, 4, 8, 4, 3, 3, DataType::kF32, "I", "W", "O"),
                     {1, 1, 4, 1, 1, 1, 1},
                     {{1, 1, 1, 1}, {4, 1, 1, 1}, {1, 1, 1, 1}}});
    // W rotates along f and c (a 2x2 ring over the h-slices); I co-rotates
    // along c (a ring of 2 over the f-slices).
    cases.push_back({"ConvTwoRotatingDims",
                     Conv2dOp("conv2r", 1, 4, 4, 8, 4, 3, 3, DataType::kF32, "I", "W", "O"),
                     {1, 2, 4, 1, 1, 1, 1},
                     {{1, 2, 1, 1}, {2, 2, 1, 1}, {1, 1, 1, 1}}});
    cases.push_back({"StridedConv",
                     Conv2dOp("conv_s2", 1, 2, 4, 4, 4, 3, 3, DataType::kF32, "I", "W", "O",
                              /*stride=*/2),
                     {1, 2, 2, 1, 1, 1, 1},
                     {{1, 1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1}}});
    cases.push_back({"PaddedStridedConvRotation",
                     Conv2dOp("conv_pad", 1, 4, 2, 5, 5, 3, 3, DataType::kF32, "I", "W", "O",
                              /*stride=*/2),
                     {1, 2, 2, 1, 1, 1, 1},
                     {{1, 2, 1, 1}, {1, 2, 1, 1}, {1, 1, 1, 1}}});
    cases.push_back({"Unary", ElementwiseOp("relu", {4, 6}, DataType::kF32, "x", "y"), {2, 3},
                     {{1, 1}, {1, 1}}});
    cases.push_back({"PaddedBinary",
                     BinaryOp("add", {5, 7}, DataType::kF32, "x", "z", "y"), {2, 3},
                     {{1, 1}, {1, 1}, {1, 1}}});
    cases.push_back({"Reduce", ReduceOp("sum", {4, 8}, DataType::kF32, "x", "y"), {2, 4},
                     {{1, 1}, {1}}});
    cases.push_back({"PaddedReduce", ReduceOp("sum", {5, 9}, DataType::kF32, "x", "y"), {2, 2},
                     {{1, 1}, {1}}});
    // Slab (12 floats = 48B) far above the 16B staging buffer: many rounds.
    cases.push_back({"TinyShiftBuffer", mm(4, 12, 4), {1, 4, 1}, {{1, 2}, {1, 1}, {1, 1}},
                     /*shift_buffer_bytes=*/16});
    return cases;
  }();
  return battery;
}

const BatteryCase& Case(const std::string& name) {
  for (const BatteryCase& c : Battery()) {
    if (c.name == name) {
      return c;
    }
  }
  T10_CHECK(false) << "no battery case " << name;
  return Battery().front();
}

ChipSpec BatteryChip(const BatteryCase& c, const ExecutionPlan& plan) {
  ChipSpec chip = TinyChip(static_cast<int>(plan.cores_used()));
  if (c.shift_buffer_bytes > 0) {
    chip.shift_buffer_bytes = c.shift_buffer_bytes;
  }
  return chip;
}

std::uint64_t OutputChecksum(const HostTensor& t) {
  return fault::Checksum(reinterpret_cast<const std::byte*>(t.data.data()),
                         static_cast<std::int64_t>(t.data.size() * sizeof(float)));
}

// Runs a battery case against the single-core reference; returns the stats.
ProgramRunStats CheckProgram(const BatteryCase& c, std::uint64_t seed = 21) {
  auto plan = ExecutionPlan::Create(c.op, c.fop, c.ft);
  EXPECT_TRUE(plan.has_value()) << c.name << ": " << c.op.DebugString();
  if (!plan.has_value()) {
    return {};
  }
  Machine machine(BatteryChip(c, *plan));
  ProgramExecutor executor(machine, *plan);
  std::vector<HostTensor> inputs = RandomInputs(c.op, seed);
  ProgramRunStats stats;
  HostTensor got = *executor.Run(inputs, &stats);
  HostTensor want = ReferenceExecute(c.op, inputs);
  ExpectTensorsNear(got, want);
  EXPECT_EQ(stats.steps, plan->total_steps());
  // Machine memory fully released.
  for (int core = 0; core < machine.num_cores(); ++core) {
    EXPECT_EQ(machine.memory(core).used_bytes(), 0) << "core " << core;
  }
  return stats;
}

TEST(LoweringTest, Figure7ProgramStructure) {
  Operator op = MatMulOp("mm", 2, 6, 3, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  DeviceProgram program = LowerPlan(*plan);
  EXPECT_EQ(program.cores_used, 6);
  ASSERT_EQ(program.steps.size(), 3u);
  // Each step shifts both A and B.
  for (const ProgramStep& step : program.steps) {
    EXPECT_EQ(step.compute.vertices, 6);
    ASSERT_EQ(step.shifts.size(), 2u);
  }
  // A: 2 rings of 3 cores (one per m-slice); B: 3 rings of 2 (one per n-slice).
  EXPECT_EQ(program.allocations[0].rings.size(), 2u);
  EXPECT_EQ(program.allocations[0].rings.front().size(), 3u);
  EXPECT_EQ(program.allocations[1].rings.size(), 3u);
  EXPECT_EQ(program.allocations[1].rings.front().size(), 2u);
  // C never rotates.
  EXPECT_TRUE(program.allocations[2].rings.empty());
  EXPECT_EQ(program.epilogue_rounds, 0);
  // Per-core traffic matches Evaluate()'s accounting.
  ChipSpec chip = TinyChip(6);
  GroundTruthTiming timing(chip);
  EXPECT_EQ(program.BytesSentPerCore(), plan->Evaluate(timing, chip).shift_bytes_per_core);
}

TEST(LoweringTest, ReduceGroupGetsEpilogue) {
  Operator op = MatMulOp("mm", 4, 32, 4, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {1, 1, 4}, {{1, 1}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  DeviceProgram program = LowerPlan(*plan);
  EXPECT_EQ(program.epilogue_rounds, 3);
  EXPECT_GT(program.epilogue_chunk_bytes, 0);
}

TEST(LoweringTest, RingsPartitionTheSharingGroup) {
  // P = 8 sharing cores, ring size 4 -> 2 replicas (rings) per sub-tensor.
  Operator op = MatMulOp("mm", 8, 16, 8, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {1, 8, 1}, {{1, 4}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  DeviceProgram program = LowerPlan(*plan);
  const TensorAllocation& a = program.allocations[0];
  EXPECT_EQ(a.rings.size(), 2u);  // 1 sub-tensor x 2 replicas.
  std::set<int> seen;
  for (const auto& ring : a.rings) {
    EXPECT_EQ(ring.size(), 4u);
    for (int core : ring) {
      EXPECT_TRUE(seen.insert(core).second) << "core in two rings";
    }
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ProgramExecutorTest, Figure7MatMul) { CheckProgram(Case("Figure7MatMul")); }

TEST(ProgramExecutorTest, MismatchedWindows) { CheckProgram(Case("MismatchedWindows")); }

TEST(ProgramExecutorTest, ReplicatedNoRotation) { CheckProgram(Case("ReplicatedNoRotation")); }

TEST(ProgramExecutorTest, SpatialReduction) { CheckProgram(Case("SpatialReduction")); }

TEST(ProgramExecutorTest, RotationPlusReduction) {
  CheckProgram(Case("RotationPlusReduction"));
}

TEST(ProgramExecutorTest, TwoRotatingTensors) { CheckProgram(Case("TwoRotatingTensors")); }

TEST(ProgramExecutorTest, MultiDimTemporal) {
  const BatteryCase& c = Case("MultiDimTemporal");
  CheckProgram(c);
  // A shifts along both of its rotating dims, and no other operand shifts.
  auto plan = ExecutionPlan::Create(c.op, c.fop, c.ft);
  ASSERT_TRUE(plan.has_value());
  std::set<int> shifted_dims;
  for (const ProgramStep& step : LowerPlan(*plan).steps) {
    for (const ShiftSet& shift : step.shifts) {
      EXPECT_EQ(shift.operand, 0);
      shifted_dims.insert(shift.dim);
    }
  }
  EXPECT_EQ(shifted_dims, (std::set<int>{0, 1}));
}

TEST(ProgramExecutorTest, PaddedAxes) {
  CheckProgram(Case("PaddedAxes"));
  CheckProgram(Case("PaddedRotationPlusReduction"));
}

TEST(ProgramExecutorTest, ConvWithWeightRotation) {
  CheckProgram(Case("ConvWithWeightRotation"));
}

TEST(ProgramExecutorTest, ConvTwoRotatingDims) { CheckProgram(Case("ConvTwoRotatingDims")); }

TEST(ProgramExecutorTest, StridedConv) {
  CheckProgram(Case("StridedConv"));
  CheckProgram(Case("PaddedStridedConvRotation"));
}

TEST(ProgramExecutorTest, ElementwiseAndReduce) {
  CheckProgram(Case("Unary"));
  CheckProgram(Case("PaddedBinary"));
  CheckProgram(Case("Reduce"));
  CheckProgram(Case("PaddedReduce"));
}

TEST(ProgramExecutorTest, TinyShiftBufferStillCorrect) {
  ProgramRunStats stats = CheckProgram(Case("TinyShiftBuffer"), /*seed=*/5);
  EXPECT_GT(stats.shift_rounds, stats.steps);  // Chunking happened.
}

// Pins the FNV checksum of every battery output (inputs from seed 21): the
// executor's accumulation order is part of its contract, so a rewrite must
// reproduce every output float bit for bit, with and without the
// checksummed fault-tolerant transfer path.
TEST(ProgramExecutorTest, GoldenOutputChecksums) {
  const std::map<std::string, std::uint64_t> golden = {
      {"Figure7MatMul", 0xa668e38ceb4ed10bULL},
      {"MismatchedWindows", 0xb46e7f5b8721fc1dULL},
      {"ReplicatedNoRotation", 0x4dc7effe4d33b10fULL},
      {"SpatialReduction", 0x12534eb052be6619ULL},
      {"RotationPlusReduction", 0x4cf8ecfdd17fd034ULL},
      {"TwoRotatingTensors", 0x5eff159bb5cafe39ULL},
      {"PaddedAxes", 0x144ffc5fef80f4ecULL},
      {"PaddedRotationPlusReduction", 0x9cd737dcc77ee36dULL},
      {"ConvWithWeightRotation", 0xa8b1dc4d5dd68f5cULL},
      {"StridedConv", 0xde9637bf58a3764dULL},
      {"PaddedStridedConvRotation", 0xeb943a36884b6063ULL},
      {"Unary", 0xe55ecc0766b7c85cULL},
      {"PaddedBinary", 0xd1ec888bcd6f579bULL},
      {"Reduce", 0x309b0660a1fd7883ULL},
      {"PaddedReduce", 0xa3d43897871d39e0ULL},
      {"TinyShiftBuffer", 0x41fda3a528c5568dULL},
      {"MultiDimTemporal", 0x8554494d0437090dULL},
      {"ConvTwoRotatingDims", 0x81f285eaeef09bc4ULL},
  };
  for (const BatteryCase& c : Battery()) {
    SCOPED_TRACE(c.name);
    auto plan = ExecutionPlan::Create(c.op, c.fop, c.ft);
    ASSERT_TRUE(plan.has_value());
    const std::vector<HostTensor> inputs = RandomInputs(c.op, 21);
    FaultToleranceOptions reliable;
    reliable.enabled = true;
    reliable.checkpoint_interval_steps = 1;
    for (const FaultToleranceOptions& ft : {FaultToleranceOptions{}, reliable}) {
      Machine machine(BatteryChip(c, *plan));
      StatusOr<HostTensor> got = ProgramExecutor(machine, *plan, ft).Run(inputs);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const auto it = golden.find(c.name);
      ASSERT_NE(it, golden.end()) << "no golden checksum; got 0x" << std::hex
                                  << OutputChecksum(*got);
      EXPECT_EQ(OutputChecksum(*got), it->second)
          << "got 0x" << std::hex << OutputChecksum(*got);
    }
  }
}

TEST(ProgramExecutorTest, TrafficMatchesMachineCounters) {
  Operator op = MatMulOp("mm", 2, 6, 3, DataType::kF32, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {2, 3, 1}, {{1, 3}, {2, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  Machine machine(TinyChip(6));
  ProgramExecutor executor(machine, *plan);
  std::vector<HostTensor> inputs = RandomInputs(op, 9);
  ProgramRunStats stats;
  ASSERT_TRUE(executor.Run(inputs, &stats).ok());
  // Every core sends program.BytesSentPerCore() minus the host-merged
  // epilogue (none here), which is Evaluate()'s per-core shift volume;
  // with 6 cores:
  EXPECT_EQ(stats.bytes_sent_total,
            6 * executor.program().BytesSentPerCore());
  ChipSpec chip = TinyChip(6);
  GroundTruthTiming timing(chip);
  EXPECT_EQ(stats.bytes_sent_total,
            plan->Evaluate(timing, chip).shift_bytes_per_core * plan->cores_used());
}

// Every Pareto plan the default search produces, two rotating dims per
// tensor included, must match the reference through the full lowering
// pipeline: contractions (incl. strided, padded and unstrided convs with
// compound input dims), elementwise and reduce ops, over padded and
// unpadded shapes.
class SearchedProgramsExecute : public ::testing::TestWithParam<int> {};

Operator SearchedOp(int index) {
  switch (index) {
    case 0:
      return MatMulOp("mm", 6, 12, 4, DataType::kF32, "A", "B", "C");
    case 1:
      return MatMulOp("skinny", 1, 24, 12, DataType::kF32, "A", "B", "C");
    case 2:
      return BatchedMatMulOp("bmm", 2, 4, 6, 4, DataType::kF32, "A", "B", "C");
    case 3:
      return Conv2dOp("conv_s2", 1, 4, 6, 5, 5, 3, 3, DataType::kF32, "I", "W", "O",
                      /*stride=*/2);
    case 4:
      return MatMulOp("padded", 5, 14, 7, DataType::kF32, "A", "B", "C");
    case 5:
      return BinaryOp("add", {5, 7}, DataType::kF32, "x", "z", "y");
    case 6:
      return ElementwiseOp("gelu", {6, 10}, DataType::kF32, "x", "y", /*cost=*/8.0);
    case 7:
      return ReduceOp("sum", {7, 11}, DataType::kF32, "x", "y");
    default:
      return Conv2dOp("conv", 1, 2, 6, 6, 6, 3, 3, DataType::kF32, "I", "W", "O");
  }
}

TEST_P(SearchedProgramsExecute, MatchesReference) {
  ChipSpec chip = TinyChip(12);
  GroundTruthTiming timing(chip);
  const Operator op = SearchedOp(GetParam());
  SearchConstraints constraints;
  constraints.parallelism_fraction = 0.5;
  IntraOpResult result = SearchOperatorPlans(op, chip, timing, constraints);
  ASSERT_FALSE(result.pareto.empty());
  std::vector<HostTensor> inputs = RandomInputs(op, 31 + GetParam());
  HostTensor want = ReferenceExecute(op, inputs);
  Machine machine(chip);
  for (const PlanCandidate& candidate : result.pareto) {
    ProgramExecutor executor(machine, candidate.plan);
    HostTensor got = *executor.Run(inputs);
    ExpectTensorsNear(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, SearchedProgramsExecute, ::testing::Range(0, 9));

TEST(HostTensorTest, ReferenceMatMulMatchesManual) {
  Operator op = MatMulOp("mm", 2, 3, 2, DataType::kF32, "A", "B", "C");
  HostTensor a = HostTensor::Zeros({2, 3});
  HostTensor b = HostTensor::Zeros({3, 2});
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    a.data[i] = static_cast<float>(i + 1);
  }
  for (std::size_t i = 0; i < b.data.size(); ++i) {
    b.data[i] = static_cast<float>(i);
  }
  HostTensor c = ReferenceExecute(op, {a, b});
  // C[0,0] = 1*0 + 2*2 + 3*4 = 16; C[1,1] = 4*1 + 5*3 + 6*5 = 49.
  EXPECT_FLOAT_EQ(c.at({0, 0}), 16.0f);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 49.0f);
}

TEST(HostTensorTest, ReferenceOutputsArePinned) {
  // The output bits of ReferenceExecute, so a change to how it indexes its
  // operands must keep its loop and accumulation order.
  struct Pinned {
    Operator op;
    std::uint64_t checksum;
  };
  const Pinned cases[] = {
      {MatMulOp("mm", 16, 32, 16, DataType::kF32, "A", "B", "C"), 0x302ce8bb7447d3b0ull},
      {Conv2dOp("conv_pad", 1, 4, 2, 5, 5, 3, 3, DataType::kF32, "I", "W", "O", /*stride=*/2),
       0xc3f03cb59c8f9955ull},
      {ReduceOp("sum", {5, 9}, DataType::kF32, "x", "y"), 0xc0b2eadfa660b660ull},
      {BinaryOp("add", {5, 7}, DataType::kF32, "x", "z", "y"), 0xa1241f451486d1a7ull},
  };
  for (const Pinned& c : cases) {
    const HostTensor out = ReferenceExecute(c.op, RandomInputs(c.op, 41));
    EXPECT_EQ(OutputChecksum(out), c.checksum)
        << c.op.name() << ": 0x" << std::hex << OutputChecksum(out);
  }
}

}  // namespace
}  // namespace t10
