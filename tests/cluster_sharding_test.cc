// Sharded compilation across a simulated multi-chip cluster: ClusterSpec
// topology math, the inter-chip channel, graph partitioning, the sharded
// compiler's determinism contract, and the cross-chip verifier rules.

#include "src/core/sharded_compiler.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/core/compiler.h"
#include "src/core/partition.h"
#include "src/fault/fault_plan.h"
#include "src/hardware/cluster_spec.h"
#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/sim/machine.h"
#include "src/verify/cluster_checks.h"

namespace t10 {
namespace {

ChipSpec SmallChip(int cores = 64) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = cores;
  chip.cores_per_chip = cores;
  return chip;
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

// ---------------------------------------------------------------------------
// ClusterSpec: topology math and construction.
// ---------------------------------------------------------------------------

TEST(ClusterSpecTest, RingHopsAreCyclicDistance) {
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 4, ClusterTopology::kRing);
  EXPECT_EQ(cluster.Hops(0, 0), 0);
  EXPECT_EQ(cluster.Hops(0, 1), 1);
  EXPECT_EQ(cluster.Hops(0, 2), 2);
  EXPECT_EQ(cluster.Hops(0, 3), 1);  // Bidirectional: the short way round.
  EXPECT_EQ(cluster.Hops(3, 1), 2);
}

TEST(ClusterSpecTest, MeshHopsAreManhattanDistance) {
  // 4 chips lay out as a 2x2 grid: 0 1 / 2 3.
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 4, ClusterTopology::kMesh);
  EXPECT_EQ(cluster.Hops(0, 1), 1);
  EXPECT_EQ(cluster.Hops(0, 2), 1);
  EXPECT_EQ(cluster.Hops(0, 3), 2);  // Diagonal: no wraparound on a mesh.
  EXPECT_EQ(cluster.Hops(3, 3), 0);
}

TEST(ClusterSpecTest, TransferSecondsBillsLatencyAndWirePerHop) {
  ClusterSpec cluster = ClusterSpec::Homogeneous(
      SmallChip(), 4, ClusterTopology::kRing, /*bandwidth=*/1e9,
      /*latency_seconds=*/1e-6);
  const std::int64_t bytes = 1 << 20;
  // Store-and-forward: the full payload pays wire time at each of 2 hops.
  const double per_hop = 1e-6 + static_cast<double>(bytes) / 1e9;
  EXPECT_DOUBLE_EQ(cluster.TransferSeconds(0, 2, bytes), 2 * per_hop);
  EXPECT_DOUBLE_EQ(cluster.TransferSeconds(0, 1, bytes), per_hop);
  EXPECT_DOUBLE_EQ(cluster.TransferSeconds(1, 1, bytes), 0.0);
}

TEST(ClusterSpecTest, HomogeneousReplicatesTheChip) {
  const ChipSpec chip = SmallChip(16);
  ClusterSpec cluster = ClusterSpec::Homogeneous(chip, 3);
  ASSERT_EQ(cluster.num_chips(), 3);
  EXPECT_EQ(cluster.TotalMemoryBytes(), 3 * chip.num_cores * chip.core_memory_bytes);
  EXPECT_GT(cluster.link.bandwidth, 0.0);
  EXPECT_GT(cluster.link.latency_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// InterChipChannel: byte-level link simulation.
// ---------------------------------------------------------------------------

ChipSpec TinyChip(int cores, std::int64_t memory = 64 * 1024) {
  ChipSpec spec = ChipSpec::IpuMk2();
  spec.name = "tiny";
  spec.num_cores = cores;
  spec.cores_per_chip = cores;
  spec.core_memory_bytes = memory;
  return spec;
}

TEST(InterChipChannelTest, MovesBytesIntactAndBillsTheLink) {
  Machine src_chip(TinyChip(2));
  Machine dst_chip(TinyChip(2));
  const std::int64_t bytes = 4096;
  BufferHandle src = *src_chip.Allocate(0, bytes);
  BufferHandle dst = *dst_chip.Allocate(1, bytes);
  for (std::int64_t i = 0; i < bytes; ++i) {
    src_chip.Data(src)[i] = static_cast<std::byte>((7 * i + 3) % 251);
  }
  InterChipChannel channel(/*bandwidth=*/1e9, /*latency_seconds=*/2e-6, /*hops=*/3);
  Status moved = channel.Transfer(src_chip, src, dst_chip, dst);
  ASSERT_TRUE(moved.ok()) << moved.ToString();
  EXPECT_EQ(std::memcmp(src_chip.Data(src), dst_chip.Data(dst),
                        static_cast<std::size_t>(bytes)),
            0);
  EXPECT_EQ(channel.bytes(), bytes);
  EXPECT_EQ(channel.transfers(), 1);
  EXPECT_DOUBLE_EQ(channel.seconds(), 3 * (2e-6 + static_cast<double>(bytes) / 1e9));
}

TEST(InterChipChannelTest, RefusesWhenAnEndpointCoreIsDown) {
  Machine src_chip(TinyChip(2));
  Machine dst_chip(TinyChip(2));
  fault::FaultInjector injector(fault::FaultSpec{});
  dst_chip.AttachFaults(&injector);
  BufferHandle src = *src_chip.Allocate(0, 64);
  BufferHandle dst = *dst_chip.Allocate(1, 64);
  std::memset(src_chip.Data(src), 0x5a, 64);
  std::memset(dst_chip.Data(dst), 0x00, 64);
  injector.KillCore(1);
  InterChipChannel channel(/*bandwidth=*/1e9, /*latency_seconds=*/1e-6);
  Status refused = channel.Transfer(src_chip, src, dst_chip, dst);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  // Refused before any data moved or any link time was billed.
  EXPECT_EQ(dst_chip.Data(dst)[0], static_cast<std::byte>(0x00));
  EXPECT_EQ(channel.transfers(), 0);
  EXPECT_DOUBLE_EQ(channel.seconds(), 0.0);
}

TEST(InterChipChannelTest, RefusesWhenTheSourceCoreIsDown) {
  // The mirror of the endpoint-down case above: a dead SOURCE core refuses
  // before touching the destination, so a chip lost mid-recovery can never
  // half-ship a boundary tensor.
  Machine src_chip(TinyChip(2));
  Machine dst_chip(TinyChip(2));
  fault::FaultInjector injector(fault::FaultSpec{});
  src_chip.AttachFaults(&injector);
  BufferHandle src = *src_chip.Allocate(0, 64);
  BufferHandle dst = *dst_chip.Allocate(1, 64);
  std::memset(src_chip.Data(src), 0x5a, 64);
  std::memset(dst_chip.Data(dst), 0x00, 64);
  injector.KillCore(0);
  InterChipChannel channel(/*bandwidth=*/1e9, /*latency_seconds=*/1e-6);
  Status refused = channel.Transfer(src_chip, src, dst_chip, dst);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_EQ(dst_chip.Data(dst)[0], static_cast<std::byte>(0x00));
  EXPECT_EQ(channel.bytes(), 0);
  EXPECT_EQ(channel.transfers(), 0);
  EXPECT_DOUBLE_EQ(channel.seconds(), 0.0);
}

TEST(InterChipChannelTest, EndpointDownRefusalBillsOnlyTheBlockedCounter) {
  // The global sim.machine.interchip_* registry must agree with the
  // per-channel view: a refusal bills exactly one blocked increment and
  // moves no bytes, pays no transfers, accrues no link seconds.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  Machine src_chip(TinyChip(2));
  Machine dst_chip(TinyChip(2));
  fault::FaultInjector injector(fault::FaultSpec{});
  dst_chip.AttachFaults(&injector);
  BufferHandle src = *src_chip.Allocate(0, 128);
  BufferHandle dst = *dst_chip.Allocate(1, 128);
  injector.KillCore(1);
  InterChipChannel channel(/*bandwidth=*/1e9, /*latency_seconds=*/1e-6);
  const std::int64_t bytes_before =
      metrics.GetCounter("sim.machine.interchip_bytes").value();
  const std::int64_t transfers_before =
      metrics.GetCounter("sim.machine.interchip_transfers").value();
  const std::int64_t blocked_before =
      metrics.GetCounter("sim.machine.interchip_blocked").value();
  EXPECT_EQ(channel.Transfer(src_chip, src, dst_chip, dst).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(metrics.GetCounter("sim.machine.interchip_bytes").value(), bytes_before);
  EXPECT_EQ(metrics.GetCounter("sim.machine.interchip_transfers").value(),
            transfers_before);
  EXPECT_EQ(metrics.GetCounter("sim.machine.interchip_blocked").value(),
            blocked_before + 1);
}

// ---------------------------------------------------------------------------
// GraphPartition: contiguous stages, forward boundaries, determinism.
// ---------------------------------------------------------------------------

TEST(PartitionTest, ContiguousStagesCoverEveryOperator) {
  Graph graph = Mlp();
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 3);
  GraphPartitionResult partition = PartitionGraph(graph, cluster);
  ASSERT_TRUE(partition.feasible) << partition.reason;
  EXPECT_EQ(partition.num_stages, 3);
  ASSERT_EQ(static_cast<int>(partition.stage_of_op.size()), graph.num_ops());
  // Stage ids are non-decreasing along the topological order and every
  // stage is a contiguous [first, last] run.
  for (int i = 1; i < graph.num_ops(); ++i) {
    EXPECT_GE(partition.stage_of_op[i], partition.stage_of_op[i - 1]);
  }
  for (int s = 0; s < partition.num_stages; ++s) {
    const auto [first, last] = partition.stage_ops[static_cast<std::size_t>(s)];
    for (int i = first; i <= last; ++i) {
      EXPECT_EQ(partition.stage_of_op[i], s);
    }
  }
  // Boundaries only flow forward and sum to BoundaryBytes().
  std::int64_t total = 0;
  for (const StageBoundary& boundary : partition.boundaries) {
    EXPECT_LT(boundary.src_stage, boundary.dst_stage);
    EXPECT_GT(boundary.bytes, 0);
    EXPECT_GT(boundary.transfer_seconds, 0.0);
    total += boundary.bytes;
  }
  EXPECT_EQ(partition.BoundaryBytes(), total);
  EXPECT_GT(partition.handoff_seconds, 0.0);
}

TEST(PartitionTest, SingleChipIsOneStageWithNoBoundaries) {
  Graph graph = Mlp();
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 1);
  GraphPartitionResult partition = PartitionGraph(graph, cluster);
  ASSERT_TRUE(partition.feasible) << partition.reason;
  EXPECT_EQ(partition.num_stages, 1);
  EXPECT_TRUE(partition.boundaries.empty());
  EXPECT_DOUBLE_EQ(partition.handoff_seconds, 0.0);
}

TEST(PartitionTest, InfeasibleWhenNoCutFitsTheChips) {
  Graph graph = Mlp(/*batch=*/64);
  // 2 cores x 4KiB per chip cannot hold any stage of the MLP.
  ClusterSpec cluster = ClusterSpec::Homogeneous(TinyChip(2, 4 * 1024), 4);
  GraphPartitionResult partition = PartitionGraph(graph, cluster);
  EXPECT_FALSE(partition.feasible);
  EXPECT_FALSE(partition.reason.empty());
}

TEST(PartitionTest, DeterministicAcrossCalls) {
  Graph graph = Mlp();
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 3);
  GraphPartitionResult a = PartitionGraph(graph, cluster);
  GraphPartitionResult b = PartitionGraph(graph, cluster);
  ASSERT_TRUE(a.feasible);
  EXPECT_EQ(a.stage_of_op, b.stage_of_op);
  EXPECT_EQ(a.stage_ops, b.stage_ops);
  ASSERT_EQ(a.boundaries.size(), b.boundaries.size());
  for (std::size_t i = 0; i < a.boundaries.size(); ++i) {
    EXPECT_EQ(a.boundaries[i].tensor, b.boundaries[i].tensor);
    EXPECT_EQ(a.boundaries[i].bytes, b.boundaries[i].bytes);
    EXPECT_EQ(a.boundaries[i].hops, b.boundaries[i].hops);
  }
}

TEST(PartitionTest, GoldenCutsMatchParent) {
  // Cuts, bottlenecks and resident bytes recorded before the resident-byte
  // table replaced a rescan of every tensor per candidate range: the DP must
  // pick the same cuts at the same cost, to the last bit.
  struct Golden {
    const char* name;
    Graph graph;
    ClusterSpec cluster;
    std::vector<std::pair<int, int>> stage_ops;
    double bottleneck_seconds;
    std::vector<std::int64_t> resident_bytes;
  };
  const ClusterSpec mk2x4 = ClusterSpec::Homogeneous(ChipSpec::IpuMk2(), 4);
  const ClusterSpec mk2x5 = ClusterSpec::Homogeneous(ChipSpec::IpuMk2(), 5);
  const Golden goldens[] = {
      {"BERT x2 on 3 scaled chips", BuildBertLarge(1, /*num_layers=*/2),
       ClusterSpec::Homogeneous(SmallChip(), 3), {{0, 10}, {11, 20}, {21, 27}},
       0x1.28151b194cc88p-12, {26476544, 26476544, 26476544}},
      {"OPT-13B x4 on 4 IPU-MK2", BuildOptLayer("OPT-13B", 5120, 40, 1, 1024, 4), mk2x4,
       {{0, 14}, {15, 27}, {28, 41}, {42, 55}}, 0x1.5cfe11e08223p-14,
       {859883520, 859883520, 859883520, 859883520}},
      {"OPT-6.7B x8 on 5 IPU-MK2", BuildOptLayer("OPT-6.7B", 4096, 32, 1, 1024, 8), mk2x5,
       {{0, 24}, {25, 43}, {44, 67}, {68, 91}, {92, 111}}, 0x1.7b1c3c0edc36cp-14,
       {838901760, 721461248, 805347328, 838901760, 822124544}},
  };
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(golden.name);
    const GraphPartitionResult partition = PartitionGraph(golden.graph, golden.cluster);
    ASSERT_TRUE(partition.feasible) << partition.reason;
    EXPECT_EQ(partition.stage_ops, golden.stage_ops);
    EXPECT_EQ(partition.bottleneck_seconds, golden.bottleneck_seconds);
    EXPECT_EQ(partition.stage_resident_bytes, golden.resident_bytes);
  }
}

// ---------------------------------------------------------------------------
// ShardedCompiler: per-chip pipelines, billing, determinism (the --jobs
// contract), and the grows-with-chips acceptance property.
// ---------------------------------------------------------------------------

TEST(ShardedCompilerTest, CompilesOneStagePerChipWithTransferPrograms) {
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 3);
  ShardedCompiler compiler(cluster);
  Graph graph = Mlp();
  ShardedCompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits) << model.unfit_reason;
  ASSERT_EQ(model.num_stages(), 3);
  for (int s = 0; s < model.num_stages(); ++s) {
    const CompiledStage& stage = model.stages[static_cast<std::size_t>(s)];
    EXPECT_EQ(stage.chip_index, s);
    EXPECT_TRUE(stage.model.fits);
    EXPECT_GT(stage.model.TotalSeconds(), 0.0);
  }
  // Every non-final stage ships its boundary over the link and bills it.
  for (int s = 0; s + 1 < model.num_stages(); ++s) {
    const CompiledStage& stage = model.stages[static_cast<std::size_t>(s)];
    ASSERT_FALSE(stage.outgoing.empty());
    EXPECT_GT(stage.transfer.interchip_bytes, 0);
    EXPECT_GT(stage.transfer.interchip_seconds, 0.0);
  }
  EXPECT_GT(model.TotalSeconds(), 0.0);
  EXPECT_GE(model.TotalSeconds(), model.BottleneckSeconds());
}

TEST(ShardedCompilerTest, FingerprintIsByteIdenticalAcrossJobs) {
  // Satellite (b): the determinism contract. Same Graph + ClusterSpec must
  // produce byte-identical sharded fingerprints whether the per-stage pass
  // pipelines run on 1 worker or 8.
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 3);
  Graph graph = Mlp();
  CompileOptions serial;
  serial.jobs = 1;
  CompileOptions wide;
  wide.jobs = 8;
  ShardedCompiledModel a = ShardedCompiler(cluster, serial).Compile(graph);
  ShardedCompiledModel b = ShardedCompiler(cluster, wide).Compile(graph);
  ShardedCompiledModel c = ShardedCompiler(cluster, serial).Compile(graph);
  ASSERT_TRUE(a.fits) << a.unfit_reason;
  ASSERT_TRUE(b.fits) << b.unfit_reason;
  const std::string fp = a.Fingerprint();
  EXPECT_FALSE(fp.empty());
  EXPECT_EQ(fp, b.Fingerprint());
  EXPECT_EQ(fp, c.Fingerprint());
}

TEST(ShardedCompilerTest, ModelBeyondOneChipFitsAcrossFour) {
  // The headline acceptance property: a model that cannot fit one chip's
  // scratchpad compiles and fits once partitioned over four chips.
  // 4 x 128KiB of F16 weights = 512KiB total against a 320KiB chip: no
  // single-chip plan can keep every layer resident, but any one stage fits.
  const ChipSpec chip = TinyChip(8, 40 * 1024);
  Graph graph("wide-mlp");
  graph.Add(MatMulOp("fc1", 16, 256, 256, DataType::kF16, "x", "w1", "h1"));
  graph.Add(MatMulOp("fc2", 16, 256, 256, DataType::kF16, "h1", "w2", "h2"));
  graph.Add(MatMulOp("fc3", 16, 256, 256, DataType::kF16, "h2", "w3", "h3"));
  graph.Add(MatMulOp("fc4", 16, 256, 256, DataType::kF16, "h3", "w4", "y"));
  graph.MarkWeight("w1");
  graph.MarkWeight("w2");
  graph.MarkWeight("w3");
  graph.MarkWeight("w4");
  Compiler single(chip);
  CompiledModel on_one = single.Compile(graph);
  ASSERT_FALSE(on_one.fits) << "model must exceed a single chip for this test";
  ShardedCompiler sharded(ClusterSpec::Homogeneous(chip, 4));
  ShardedCompiledModel on_four = sharded.Compile(graph);
  EXPECT_TRUE(on_four.fits) << on_four.unfit_reason;
  EXPECT_GT(on_four.num_stages(), 1);
}

TEST(ShardedCompilerTest, UnfitClusterReportsReason) {
  ClusterSpec cluster = ClusterSpec::Homogeneous(TinyChip(2, 4 * 1024), 2);
  ShardedCompiler compiler(cluster);
  Graph graph = Mlp(/*batch=*/64);
  ShardedCompiledModel model = compiler.Compile(graph);
  EXPECT_FALSE(model.fits);
  EXPECT_FALSE(model.unfit_reason.empty());
}

TEST(ShardedCompilerTest, SimulatedBoundaryTransfersArriveBitIdentical) {
  // Byte-level simulation over the InterChipChannel: every boundary tensor
  // crosses the link intact and bills positive link time.
  ClusterSpec cluster = ClusterSpec::Homogeneous(TinyChip(8, 256 * 1024), 3);
  ShardedCompiler compiler(cluster);
  Graph graph("pipe");
  graph.Add(MatMulOp("fc1", 8, 32, 32, DataType::kF16, "x", "w1", "h1"));
  graph.Add(ElementwiseOp("relu", {8, 32}, DataType::kF16, "h1", "h2", 1.0));
  graph.Add(MatMulOp("fc2", 8, 32, 16, DataType::kF16, "h2", "w2", "y"));
  graph.MarkWeight("w1");
  graph.MarkWeight("w2");
  ShardedCompiledModel model = compiler.Compile(graph);
  ASSERT_TRUE(model.fits) << model.unfit_reason;
  StatusOr<double> seconds = SimulateBoundaryTransfers(model);
  ASSERT_TRUE(seconds.ok()) << seconds.status().ToString();
  EXPECT_GT(*seconds, 0.0);
}

// Full-depth LLMs pipelined across IPU-MK2 chips (paper §6.7/§7), at 8
// layers so tier-1 stays fast.
constexpr int kDepth = 8;

TEST(ShardedCompilerTest, FullDepthLlmFollowsItsSingleLayer) {
  const ChipSpec chip = ChipSpec::IpuMk2();
  const std::pair<Graph, Graph> models[] = {
      {BuildOptLayer("OPT-13B", 5120, 40, 1, 1024, kDepth), BuildOpt13b(1)},
      {BuildLlamaLayer("Llama2-13B", 5120, 40, 13824, 1, 1024, kDepth), BuildLlama2_13b(1)},
  };
  for (const auto& [full, layer] : models) {
    SCOPED_TRACE(full.name());
    const ShardedCompiledModel model = CompileOnFewestChips(full, chip, /*max_chips=*/16);
    ASSERT_TRUE(model.fits) << model.unfit_reason;
    EXPECT_GT(model.num_stages(), 1);
    for (const CompiledStage& stage : model.stages) {
      EXPECT_TRUE(stage.model.fits);
    }
    // "The inter-chip communication overhead between pipeline stages is
    // negligible" (§6.7), so the whole model costs depth x one layer.
    EXPECT_LT(model.partition.handoff_seconds, 0.1 * model.TotalSeconds());
    const CompiledModel single = Compiler(chip).Compile(layer);
    ASSERT_TRUE(single.fits);
    EXPECT_NEAR(model.TotalSeconds(), kDepth * single.TotalSeconds(),
                0.15 * model.TotalSeconds());
  }
}

TEST(ShardedCompilerTest, CompileOnFewestChipsReturnsTheSmallestFittingCount) {
  const ChipSpec chip = ChipSpec::IpuMk2();
  const Graph full = BuildOptLayer("OPT-6.7B", 4096, 32, 1, 1024, kDepth);
  const ShardedCompiledModel model = CompileOnFewestChips(full, chip, /*max_chips=*/16);
  ASSERT_TRUE(model.fits) << model.unfit_reason;
  ASSERT_GT(model.num_stages(), 1);
  EXPECT_EQ(model.cluster.num_chips(), model.num_stages());
  const ShardedCompiledModel fewer =
      ShardedCompiler(ClusterSpec::Homogeneous(chip, model.num_stages() - 1)).Compile(full);
  EXPECT_FALSE(fewer.fits);
  EXPECT_FALSE(fewer.unfit_reason.empty());
}

TEST(ShardedCompilerTest, DeeperLlmTakesMoreChipsAtTheSameStageTime) {
  const ChipSpec chip = ChipSpec::IpuMk2();
  const ShardedCompiledModel shallow = CompileOnFewestChips(
      BuildOptLayer("OPT-6.7B", 4096, 32, 1, 1024, kDepth / 2), chip, /*max_chips=*/16);
  const ShardedCompiledModel deep = CompileOnFewestChips(
      BuildOptLayer("OPT-6.7B", 4096, 32, 1, 1024, kDepth), chip, /*max_chips=*/16);
  ASSERT_TRUE(shallow.fits) << shallow.unfit_reason;
  ASSERT_TRUE(deep.fits) << deep.unfit_reason;
  EXPECT_GT(deep.num_stages(), shallow.num_stages());
  // Steady-state throughput is set by one stage, not by the depth.
  EXPECT_NEAR(deep.BottleneckSeconds(), shallow.BottleneckSeconds(),
              0.3 * shallow.BottleneckSeconds());
  EXPECT_GT(deep.TotalSeconds(), shallow.TotalSeconds());
}

TEST(PipelineTest, SmallModelFitsOneChip) {
  // Four OPT-1.3B layers fit one chip: the search stops at n = 1.
  const ShardedCompiledModel small = CompileOnFewestChips(
      BuildOptLayer("OPT-1.3B", 2048, 32, 1, 1024, 4), ChipSpec::IpuMk2(), /*max_chips=*/4);
  ASSERT_TRUE(small.fits) << small.unfit_reason;
  EXPECT_EQ(small.num_stages(), 1);
  EXPECT_EQ(small.cluster.num_chips(), 1);
}

TEST(PipelineTest, InfeasibleWithoutFit) {
  // Eight OPT-13B layers need more than two chips: the cap reports why.
  const ShardedCompiledModel capped = CompileOnFewestChips(
      BuildOptLayer("OPT-13B", 5120, 40, 1, 1024, kDepth), ChipSpec::IpuMk2(), /*max_chips=*/2);
  EXPECT_FALSE(capped.fits);
  EXPECT_FALSE(capped.unfit_reason.empty());
  EXPECT_EQ(capped.cluster.num_chips(), 2);
}

// ---------------------------------------------------------------------------
// Cross-chip verifier: a clean compile passes; targeted tampering trips the
// specific rule that guards the invariant.
// ---------------------------------------------------------------------------

class VerifyShardedTest : public ::testing::Test {
 protected:
  VerifyShardedTest()
      : cluster_(ClusterSpec::Homogeneous(SmallChip(), 3)),
        graph_(Mlp()),
        model_(ShardedCompiler(cluster_).Compile(graph_)) {}

  ClusterSpec cluster_;
  Graph graph_;
  ShardedCompiledModel model_;
};

TEST_F(VerifyShardedTest, CleanCompilePassesEveryRule) {
  ASSERT_TRUE(model_.fits) << model_.unfit_reason;
  verify::VerifyResult result = verify::VerifyShardedModel(model_, graph_);
  EXPECT_TRUE(result.ok()) << result.Listing();
}

TEST_F(VerifyShardedTest, NonContiguousStageAssignmentTripsContiguity) {
  ASSERT_TRUE(model_.fits);
  // Send the middle operator to the last stage: 0,2,2 -> stage 1 empty and
  // the runs no longer match stage_ops.
  model_.partition.stage_of_op[1] = 2;
  verify::VerifyResult result = verify::VerifyShardedModel(model_, graph_);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.stage.contiguous")) << result.Listing();
}

TEST_F(VerifyShardedTest, ResizedBoundaryTensorTripsConservation) {
  ASSERT_TRUE(model_.fits);
  ASSERT_FALSE(model_.partition.boundaries.empty());
  model_.partition.boundaries[0].bytes += 4;  // Grew in transit.
  verify::VerifyResult result = verify::VerifyShardedModel(model_, graph_);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.boundary.conservation")) << result.Listing();
}

TEST_F(VerifyShardedTest, DroppedBoundaryTripsConservation) {
  ASSERT_TRUE(model_.fits);
  ASSERT_FALSE(model_.partition.boundaries.empty());
  model_.partition.boundaries.pop_back();  // Lost in transit.
  verify::VerifyResult result = verify::VerifyShardedModel(model_, graph_);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.boundary.conservation")) << result.Listing();
}

TEST_F(VerifyShardedTest, DuplicateChipAssignmentTripsAssignment) {
  ASSERT_TRUE(model_.fits);
  ASSERT_GE(model_.num_stages(), 2);
  model_.stages[1].chip_index = model_.stages[0].chip_index;
  verify::VerifyResult result = verify::VerifyShardedModel(model_, graph_);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.chips.assignment")) << result.Listing();
}

TEST_F(VerifyShardedTest, UnfitStageTripsFitsRule) {
  ASSERT_TRUE(model_.fits);
  model_.stages[0].model.fits = false;
  verify::VerifyResult result = verify::VerifyShardedModel(model_, graph_);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.stage.fits")) << result.Listing();
}

// ---------------------------------------------------------------------------
// RepartitionDegraded: the elastic-recovery re-cut over surviving chips.
// ---------------------------------------------------------------------------

TEST(RepartitionDegradedTest, SurvivorsKeepTheirOriginalChipIdentity) {
  Graph graph = Mlp();
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 4);
  std::vector<bool> chip_down = {false, true, false, false};
  DegradedRepartition replan = RepartitionDegraded(graph, cluster, chip_down);
  ASSERT_TRUE(replan.partition.feasible) << replan.partition.reason;
  EXPECT_EQ(replan.survivors.num_chips(), 3);
  ASSERT_EQ(static_cast<int>(replan.stage_chips.size()), replan.partition.num_stages);
  for (const int chip : replan.stage_chips) {
    // Every stage lands on a survivor, named by its FULL-cluster index.
    EXPECT_NE(chip, 1);
    EXPECT_GE(chip, 0);
    EXPECT_LT(chip, 4);
  }
  // The re-cut still covers every operator exactly once.
  verify::VerifyResult structural =
      verify::VerifyPartition(replan.partition, graph, replan.survivors);
  EXPECT_TRUE(structural.ok()) << structural.Listing();
}

TEST(RepartitionDegradedTest, NoLossReproducesTheOriginalCut) {
  Graph graph = Mlp();
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 3);
  GraphPartitionResult original = PartitionGraph(graph, cluster);
  DegradedRepartition replan =
      RepartitionDegraded(graph, cluster, {false, false, false});
  ASSERT_TRUE(replan.partition.feasible) << replan.partition.reason;
  EXPECT_EQ(replan.partition.stage_ops, original.stage_ops);
  EXPECT_EQ(replan.stage_chips, (std::vector<int>{0, 1, 2}));
}

TEST(RepartitionDegradedTest, EveryChipDownIsInfeasibleNotFatal) {
  Graph graph = Mlp();
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 2);
  DegradedRepartition replan = RepartitionDegraded(graph, cluster, {true, true});
  EXPECT_FALSE(replan.partition.feasible);
  EXPECT_FALSE(replan.partition.reason.empty());
}

TEST(RepartitionDegradedTest, InfeasibleWhenSurvivorsCannotHoldTheModel) {
  // Each chip can hold one stage of the 4-layer model but never all of it
  // (the ShardedCompilerTest.ModelBeyondOneChipFitsAcrossFour setup): losing
  // three of four chips leaves no feasible cut.
  const ChipSpec chip = TinyChip(8, 40 * 1024);
  Graph graph("wide-mlp");
  graph.Add(MatMulOp("fc1", 16, 256, 256, DataType::kF16, "x", "w1", "h1"));
  graph.Add(MatMulOp("fc2", 16, 256, 256, DataType::kF16, "h1", "w2", "h2"));
  graph.Add(MatMulOp("fc3", 16, 256, 256, DataType::kF16, "h2", "w3", "h3"));
  graph.Add(MatMulOp("fc4", 16, 256, 256, DataType::kF16, "h3", "w4", "y"));
  graph.MarkWeight("w1");
  graph.MarkWeight("w2");
  graph.MarkWeight("w3");
  graph.MarkWeight("w4");
  ClusterSpec cluster = ClusterSpec::Homogeneous(chip, 4);
  DegradedRepartition replan =
      RepartitionDegraded(graph, cluster, {true, false, true, true});
  EXPECT_FALSE(replan.partition.feasible);
  EXPECT_FALSE(replan.partition.reason.empty());
}

// ---------------------------------------------------------------------------
// VerifyRecovery: the cluster.recovery.* gate over a degraded cut.
// ---------------------------------------------------------------------------

class VerifyRecoveryTest : public ::testing::Test {
 protected:
  VerifyRecoveryTest()
      : cluster_(ClusterSpec::Homogeneous(SmallChip(), 4)),
        graph_(Mlp()),
        chip_down_({false, true, false, false}),
        replan_(RepartitionDegraded(graph_, cluster_, chip_down_)) {}

  ClusterSpec cluster_;
  Graph graph_;
  std::vector<bool> chip_down_;
  DegradedRepartition replan_;
};

TEST_F(VerifyRecoveryTest, CleanRepartitionPasses) {
  ASSERT_TRUE(replan_.partition.feasible) << replan_.partition.reason;
  verify::VerifyResult result =
      verify::VerifyRecovery(replan_, graph_, cluster_, chip_down_, 0, 1);
  EXPECT_TRUE(result.ok()) << result.Listing();
}

TEST_F(VerifyRecoveryTest, NonMonotonicEpochTripsEpochRule) {
  verify::VerifyResult same =
      verify::VerifyRecovery(replan_, graph_, cluster_, chip_down_, 1, 1);
  EXPECT_FALSE(same.ok());
  EXPECT_TRUE(same.HasRule("cluster.recovery.epoch")) << same.Listing();
  verify::VerifyResult skipped =
      verify::VerifyRecovery(replan_, graph_, cluster_, chip_down_, 0, 2);
  EXPECT_TRUE(skipped.HasRule("cluster.recovery.epoch")) << skipped.Listing();
}

TEST_F(VerifyRecoveryTest, DroppedOperatorTripsCoverage) {
  ASSERT_TRUE(replan_.partition.feasible);
  // Shrink the last stage so the final operator falls out of every range.
  auto& last = replan_.partition.stage_ops.back();
  ASSERT_GT(last.second, 0);
  --last.second;
  verify::VerifyResult result =
      verify::VerifyRecovery(replan_, graph_, cluster_, chip_down_, 0, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.recovery.coverage")) << result.Listing();
}

TEST_F(VerifyRecoveryTest, StageOnDeadChipTripsAssignment) {
  ASSERT_TRUE(replan_.partition.feasible);
  replan_.stage_chips[0] = 1;  // Chip 1 is the one that died.
  verify::VerifyResult result =
      verify::VerifyRecovery(replan_, graph_, cluster_, chip_down_, 0, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.recovery.assignment")) << result.Listing();
}

TEST_F(VerifyRecoveryTest, DuplicateChipTripsAssignment) {
  ASSERT_TRUE(replan_.partition.feasible);
  ASSERT_GE(static_cast<int>(replan_.stage_chips.size()), 2);
  replan_.stage_chips[1] = replan_.stage_chips[0];
  verify::VerifyResult result =
      verify::VerifyRecovery(replan_, graph_, cluster_, chip_down_, 0, 1);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.HasRule("cluster.recovery.assignment")) << result.Listing();
}

// ---------------------------------------------------------------------------
// RecompileDegraded: recovery recompiles only what the re-cut moved.
// ---------------------------------------------------------------------------

TEST(RecompileDegradedTest, RecompilesOnlyChangedStagesAndStaysVerifiable) {
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 3);
  ShardedCompiler compiler(cluster);
  Graph graph = Mlp();
  ShardedCompiledModel before = compiler.Compile(graph);
  ASSERT_TRUE(before.fits) << before.unfit_reason;

  ShardedCompiledModel after = compiler.RecompileDegraded(
      graph, before, RepartitionDegraded(graph, cluster, {true, false, false}));
  ASSERT_TRUE(after.fits) << after.unfit_reason;
  EXPECT_EQ(after.num_stages(), 2);
  for (const CompiledStage& stage : after.stages) {
    // Stages keep full-cluster chip identity and never land on the dead chip.
    EXPECT_NE(stage.chip_index, 0);
    EXPECT_TRUE(stage.model.fits);
    ASSERT_NE(stage.graph, nullptr);
  }
  // The degraded model's stage ranges still cover every operator.
  int covered = 0;
  for (const auto& [first, last] : after.partition.stage_ops) {
    covered += last - first + 1;
  }
  EXPECT_EQ(covered, graph.num_ops());
}

TEST(RecompileDegradedTest, InfeasibleRepartitionReportsUnfit) {
  ClusterSpec cluster = ClusterSpec::Homogeneous(SmallChip(), 2);
  ShardedCompiler compiler(cluster);
  Graph graph = Mlp();
  ShardedCompiledModel before = compiler.Compile(graph);
  ASSERT_TRUE(before.fits) << before.unfit_reason;
  ShardedCompiledModel after =
      compiler.RecompileDegraded(graph, before, RepartitionDegraded(graph, cluster, {true, true}));
  EXPECT_FALSE(after.fits);
  EXPECT_FALSE(after.unfit_reason.empty());
}

}  // namespace
}  // namespace t10
