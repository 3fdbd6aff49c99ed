#include "src/models/zoo.h"

#include <gtest/gtest.h>

namespace t10 {
namespace {

// Table 2 parameter counts (FP16 weights; 2 bytes per parameter).
double Params(const Graph& g) { return static_cast<double>(g.WeightBytes()) / 2.0; }

TEST(ZooTest, BertLargeParameterCount) {
  Graph g = BuildBertLarge(1);
  // 24 x (4*1024^2 + 2*1024*4096) ~ 302M (embeddings excluded; Table 2 lists
  // 340M including them).
  EXPECT_NEAR(Params(g) / 1e6, 302.0, 5.0);
  EXPECT_GT(g.num_ops(), 24 * 10);
}

TEST(ZooTest, VitBaseParameterCount) {
  Graph g = BuildVitBase(1);
  // ~85M + patch embedding.
  EXPECT_NEAR(Params(g) / 1e6, 86.0, 4.0);
}

TEST(ZooTest, ResNet18ParameterCount) {
  Graph g = BuildResNet18(1);
  // ResNet-18 is ~11.7M; our 3x3 downsample substitution adds ~2M.
  EXPECT_NEAR(Params(g) / 1e6, 11.7, 3.5);
}

TEST(ZooTest, NerfParameterCount) {
  Graph g = BuildNerf(1);
  // Table 2: 24K parameters.
  EXPECT_NEAR(Params(g) / 1e3, 24.0, 6.0);
}

TEST(ZooTest, OptLayerScalesWithModelSize) {
  // Per-layer params: 12 h^2 (4 attention + 8 FFN); KV cache excluded.
  for (auto [build, hidden] :
       std::vector<std::pair<Graph (*)(std::int64_t), std::int64_t>>{
           {BuildOpt1p3b, 2048}, {BuildOpt6p7b, 4096}, {BuildOpt13b, 5120}}) {
    Graph g = build(1);
    double expected = 12.0 * static_cast<double>(hidden) * static_cast<double>(hidden);
    // Weights include the KV cache (2 * ctx * hidden params).
    double kv = 2.0 * 1024.0 * static_cast<double>(hidden);
    EXPECT_NEAR(Params(g), expected + kv, 0.02 * expected) << g.name();
  }
}

TEST(ZooTest, Llama2LayerHasGatedFfn) {
  Graph g = BuildLlama2_7b(1);
  // 4*4096^2 attention + 3*4096*11008 FFN + KV cache.
  double expected = 4.0 * 4096 * 4096 + 3.0 * 4096 * 11008 + 2.0 * 1024 * 4096;
  EXPECT_NEAR(Params(g), expected, 0.02 * expected);
}

// FNV-1a over every operator and every tensor's size and weight flag.
std::uint64_t GraphChecksum(const Graph& g) {
  std::string text = g.DebugString();
  for (const auto& [name, info] : g.tensors()) {
    text += name + ":" + std::to_string(info.bytes) + ":" + (info.is_weight ? "1" : "0") + ";";
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  return hash;
}

TEST(ZooTest, SingleLayerLlmGraphsAreUnchangedByTheLayerCount) {
  // Checksums recorded before the builders took `num_layers`: the one-layer
  // graphs (Fig 23, the single-chip LLM compiles) must not move.
  EXPECT_EQ(GraphChecksum(BuildOpt13b(1)), 0x292b375b398e2b05ULL);
  EXPECT_EQ(GraphChecksum(BuildOpt6p7b(1)), 0x50864fc313e85a5cULL);
  EXPECT_EQ(GraphChecksum(BuildLlama2_13b(1)), 0x12ff929de4d2a24bULL);
}

TEST(ZooTest, MultiLayerLlmChainsEachLayerToTheNext) {
  const Graph one = BuildOptLayer("OPT-1.3B", 2048, 32, /*batch=*/1);
  const Graph three = BuildOptLayer("OPT-1.3B", 2048, 32, /*batch=*/1, /*ctx=*/1024,
                                    /*num_layers=*/3);
  EXPECT_EQ(three.num_ops(), 3 * one.num_ops());
  EXPECT_EQ(three.WeightBytes(), 3 * one.WeightBytes());
  EXPECT_EQ(three.InputNames(), std::vector<std::string>{"tokens"});
  EXPECT_TRUE(three.tensor("l2_out").consumers.empty());
  EXPECT_EQ(three.tensor("l0_out").consumers, std::vector<int>{one.num_ops()});
  EXPECT_EQ(three.tensor("l1_out").consumers, std::vector<int>{2 * one.num_ops()});

  const Graph llama = BuildLlamaLayer("Llama2-7B", 4096, 32, 11008, /*batch=*/1,
                                      /*ctx=*/1024, /*num_layers=*/2);
  EXPECT_EQ(llama.num_ops(), 2 * BuildLlama2_7b(1).num_ops());
  EXPECT_EQ(llama.tensor("l0_out").consumers,
            std::vector<int>{BuildLlama2_7b(1).num_ops()});
}

TEST(ZooTest, RetNetLayerBuilds) {
  Graph g = BuildRetNet1p3b(4);
  EXPECT_GT(g.num_ops(), 10);
  // The recurrent state is persistent.
  EXPECT_TRUE(g.tensor("l0_state").is_weight);
}

TEST(ZooTest, BatchScalesActivationsNotWeights) {
  Graph b1 = BuildBertLarge(1, /*num_layers=*/2);
  Graph b4 = BuildBertLarge(4, /*num_layers=*/2);
  EXPECT_EQ(b1.WeightBytes(), b4.WeightBytes());
  EXPECT_GT(b4.TotalTensorBytes(), b1.TotalTensorBytes());
}

TEST(ZooTest, GraphsAreWellFormed) {
  for (const ModelInfo& info : EvaluationModels()) {
    Graph g = info.build(info.batch_sizes.front());
    EXPECT_GT(g.num_ops(), 0) << info.name;
    EXPECT_FALSE(g.OutputNames().empty()) << info.name;
    EXPECT_GT(g.WeightBytes(), 0) << info.name;
  }
  for (const ModelInfo& info : LlmModels()) {
    Graph g = info.build(1);
    EXPECT_GT(g.num_ops(), 0) << info.name;
    EXPECT_GT(g.WeightBytes(), 0) << info.name;
  }
}

TEST(ZooTest, ResNetConvChainsThroughHaloPadding) {
  Graph g = BuildResNet18(1);
  // The stem output is consumed with a 3x3 halo by the first block.
  const TensorInfo& stem = g.tensor("stem_a");
  EXPECT_TRUE(stem.halo_padded);
  EXPECT_EQ(stem.shape, (std::vector<std::int64_t>{1, 64, 58, 58}));
}

TEST(ZooTest, BertWeightsFitIpu) {
  // BERT-Large in FP16 must fit the 896 MB distributed memory (paper runs it
  // on one chip at small batch sizes).
  Graph g = BuildBertLarge(1);
  EXPECT_LT(g.WeightBytes(), 896LL * 1024 * 1024);
}

}  // namespace
}  // namespace t10
