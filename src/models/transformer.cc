// Transformer encoders (BERT-Large, ViT-Base).
//
// Shape conventions: activations are [batch, seq, hidden]; attention carries
// explicit head axes, e.g. scores S[b,e,s,t] += Q[b,s,e,d] * K[b,t,e,d], so
// no reshape operators are needed. Softmax and LayerNorm are modelled as
// elementwise operators with calibrated flops-per-element (their reductions
// are tiny next to the matmuls and the IPU fuses them into single vertices).

#include <string>

#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

constexpr double kSoftmaxCost = 8.0;
constexpr double kLayerNormCost = 6.0;
constexpr double kGeluCost = 8.0;

struct EncoderConfig {
  std::int64_t hidden = 0;
  std::int64_t heads = 0;
  std::int64_t ffn = 0;
  std::int64_t seq = 0;
};

// Appends one encoder layer reading activation `x` and returns the name of
// the produced activation.
std::string AddEncoderLayer(Graph& graph, const EncoderConfig& config, std::int64_t batch,
                            int layer, const std::string& x) {
  const std::int64_t h = config.hidden;
  const std::int64_t e = config.heads;
  const std::int64_t d = h / e;
  const std::int64_t s = config.seq;
  const std::string p = NumberedName("l", layer) + "_";
  const DataType f16 = DataType::kF16;

  auto axes_proj = std::vector<Axis>{{"b", batch, false}, {"s", s, false}, {"e", e, false},
                                     {"d", d, false},     {"k", h, false}};
  for (const char* which : {"q", "k", "v"}) {
    graph.Add(ContractionOp(p + which + "_proj", axes_proj,
                            {{x, {"b", "s", "k"}}, {p + "w" + which, {"k", "e", "d"}}},
                            {p + which, {"b", "s", "e", "d"}}, f16));
    graph.MarkWeight(p + "w" + which);
  }

  // Scores over all (query, key) pairs, then softmax.
  graph.Add(ContractionOp(p + "scores",
                          {{"b", batch, false}, {"e", e, false}, {"s", s, false},
                           {"t", s, false}, {"d", d, false}},
                          {{p + "q", {"b", "s", "e", "d"}}, {p + "k", {"b", "t", "e", "d"}}},
                          {p + "sc", {"b", "e", "s", "t"}}, f16));
  graph.Add(ElementwiseOp(p + "softmax", {batch, e, s, s}, f16, p + "sc", p + "probs",
                          kSoftmaxCost));
  graph.Add(ContractionOp(p + "attend",
                          {{"b", batch, false}, {"s", s, false}, {"e", e, false},
                           {"d", d, false}, {"t", s, false}},
                          {{p + "probs", {"b", "e", "s", "t"}}, {p + "v", {"b", "t", "e", "d"}}},
                          {p + "ctx", {"b", "s", "e", "d"}}, f16));
  graph.Add(ContractionOp(p + "out_proj",
                          {{"b", batch, false}, {"s", s, false}, {"n", h, false},
                           {"e", e, false}, {"d", d, false}},
                          {{p + "ctx", {"b", "s", "e", "d"}}, {p + "wo", {"e", "d", "n"}}},
                          {p + "attn", {"b", "s", "n"}}, f16));
  graph.MarkWeight(p + "wo");

  graph.Add(BinaryOp(p + "residual1", {batch, s, h}, f16, x, p + "attn", p + "r1"));
  graph.Add(ElementwiseOp(p + "ln1", {batch, s, h}, f16, p + "r1", p + "n1", kLayerNormCost));

  graph.Add(ContractionOp(p + "ffn1",
                          {{"b", batch, false}, {"s", s, false}, {"f", config.ffn, false},
                           {"k", h, false}},
                          {{p + "n1", {"b", "s", "k"}}, {p + "w1", {"k", "f"}}},
                          {p + "h1", {"b", "s", "f"}}, f16));
  graph.MarkWeight(p + "w1");
  graph.Add(ElementwiseOp(p + "gelu", {batch, s, config.ffn}, f16, p + "h1", p + "h2", kGeluCost));
  graph.Add(ContractionOp(p + "ffn2",
                          {{"b", batch, false}, {"s", s, false}, {"n", h, false},
                           {"f", config.ffn, false}},
                          {{p + "h2", {"b", "s", "f"}}, {p + "w2", {"f", "n"}}},
                          {p + "ff", {"b", "s", "n"}}, f16));
  graph.MarkWeight(p + "w2");
  graph.Add(BinaryOp(p + "residual2", {batch, s, h}, f16, p + "n1", p + "ff", p + "r2"));
  graph.Add(ElementwiseOp(p + "ln2", {batch, s, h}, f16, p + "r2", p + "out", kLayerNormCost));
  return p + "out";
}

Graph BuildEncoder(const std::string& name, const EncoderConfig& config, std::int64_t batch,
                   int num_layers) {
  Graph graph(name);
  std::string x = "embeddings";
  for (int layer = 0; layer < num_layers; ++layer) {
    x = AddEncoderLayer(graph, config, batch, layer, x);
  }
  return graph;
}

}  // namespace

Graph BuildBertLarge(std::int64_t batch, int num_layers) {
  EncoderConfig config;
  config.hidden = 1024;
  config.heads = 16;
  config.ffn = 4096;
  config.seq = 128;
  return BuildEncoder("BERT", config, batch, num_layers);
}

Graph BuildVitBase(std::int64_t batch, int num_layers) {
  EncoderConfig config;
  config.hidden = 768;
  config.heads = 12;
  config.ffn = 3072;
  config.seq = 196;
  Graph graph("ViT");
  // Patch embedding: 196 patches of 16x16x3 projected to the hidden size.
  graph.Add(ContractionOp("patch_embed",
                          {{"b", batch, false}, {"s", config.seq, false},
                           {"n", config.hidden, false}, {"k", 768, false}},
                          {{"patches", {"b", "s", "k"}}, {"w_patch", {"k", "n"}}},
                          {"embeddings", {"b", "s", "n"}}, DataType::kF16));
  graph.MarkWeight("w_patch");
  std::string x = "embeddings";
  for (int layer = 0; layer < num_layers; ++layer) {
    EncoderConfig c = config;
    x = AddEncoderLayer(graph, c, batch, layer, x);
  }
  return graph;
}

}  // namespace t10
