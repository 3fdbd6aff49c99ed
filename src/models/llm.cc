// LLM decode-step layers (paper §6.7): one transformer (OPT/Llama2) or
// retention (RetNet) layer processing one new token per sequence against a
// KV cache of `ctx` tokens. The paper runs "a subset of layers for each LLM"
// on one chip; a single layer is the unit these graphs model, and the OPT and
// Llama2 builders stack `num_layers` of them for the full-depth models a
// multi-chip pipeline serves (layer l's operators and tensors carry the
// "l<l>_" prefix and read layer l-1's output). KV caches are marked resident
// (weights) since they live on-chip across decode steps.

#include <string>

#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

constexpr double kSoftmaxCost = 8.0;
constexpr double kLayerNormCost = 6.0;
constexpr double kSiluCost = 6.0;

// Shared attention block over a KV cache; returns the attention output name
// ([b, h]-shaped tensor `p + attn`).
void AddDecodeAttention(Graph& graph, const std::string& p, std::int64_t batch, std::int64_t h,
                        std::int64_t e, std::int64_t ctx) {
  const std::int64_t d = h / e;
  const DataType f16 = DataType::kF16;

  for (const char* which : {"q", "k", "v"}) {
    graph.Add(ContractionOp(p + which + "_proj",
                            {{"b", batch, false}, {"e", e, false}, {"d", d, false},
                             {"k", h, false}},
                            {{p + "x", {"b", "k"}}, {p + "w" + which, {"k", "e", "d"}}},
                            {p + which, {"b", "e", "d"}}, f16));
    graph.MarkWeight(p + "w" + which);
  }
  // Scores against the cached keys: S[b,e,t] += Q[b,e,d] * Kc[b,t,e,d].
  graph.Add(ContractionOp(p + "scores",
                          {{"b", batch, false}, {"e", e, false}, {"t", ctx, false},
                           {"d", d, false}},
                          {{p + "q", {"b", "e", "d"}}, {p + "kcache", {"b", "t", "e", "d"}}},
                          {p + "sc", {"b", "e", "t"}}, f16));
  graph.MarkWeight(p + "kcache");
  graph.Add(ElementwiseOp(p + "softmax", {batch, e, ctx}, f16, p + "sc", p + "probs",
                          kSoftmaxCost));
  graph.Add(ContractionOp(p + "attend",
                          {{"b", batch, false}, {"e", e, false}, {"d", d, false},
                           {"t", ctx, false}},
                          {{p + "probs", {"b", "e", "t"}}, {p + "vcache", {"b", "t", "e", "d"}}},
                          {p + "ctxv", {"b", "e", "d"}}, f16));
  graph.MarkWeight(p + "vcache");
  graph.Add(ContractionOp(p + "out_proj",
                          {{"b", batch, false}, {"n", h, false}, {"e", e, false},
                           {"d", d, false}},
                          {{p + "ctxv", {"b", "e", "d"}}, {p + "wo", {"e", "d", "n"}}},
                          {p + "attn", {"b", "n"}}, f16));
  graph.MarkWeight(p + "wo");
}

void AddMatMul(Graph& graph, const std::string& name, const std::string& in,
               const std::string& weight, const std::string& out, std::int64_t batch,
               std::int64_t k, std::int64_t n) {
  graph.Add(MatMulOp(name, batch, k, n, DataType::kF16, in, weight, out));
  graph.MarkWeight(weight);
}

}  // namespace

Graph BuildOptLayer(const std::string& name, std::int64_t hidden, std::int64_t heads,
                    std::int64_t batch, std::int64_t ctx, int num_layers) {
  Graph graph(name);
  const DataType f16 = DataType::kF16;
  std::string x = "tokens";
  for (int layer = 0; layer < num_layers; ++layer) {
    const std::string p = NumberedName("l", layer) + "_";
    graph.Add(ElementwiseOp(p + "ln_in", {batch, hidden}, f16, x, p + "x", kLayerNormCost));
    AddDecodeAttention(graph, p, batch, hidden, heads, ctx);
    graph.Add(BinaryOp(p + "residual1", {batch, hidden}, f16, p + "x", p + "attn", p + "r1"));
    graph.Add(
        ElementwiseOp(p + "ln2", {batch, hidden}, f16, p + "r1", p + "n2", kLayerNormCost));
    AddMatMul(graph, p + "ffn1", p + "n2", p + "w1", p + "h1", batch, hidden, 4 * hidden);
    graph.Add(ElementwiseOp(p + "gelu", {batch, 4 * hidden}, f16, p + "h1", p + "h2", 8.0));
    AddMatMul(graph, p + "ffn2", p + "h2", p + "w2", p + "ff", batch, 4 * hidden, hidden);
    graph.Add(BinaryOp(p + "residual2", {batch, hidden}, f16, p + "r1", p + "ff", p + "out"));
    x = p + "out";
  }
  return graph;
}

Graph BuildLlamaLayer(const std::string& name, std::int64_t hidden, std::int64_t heads,
                      std::int64_t ffn, std::int64_t batch, std::int64_t ctx, int num_layers) {
  Graph graph(name);
  const DataType f16 = DataType::kF16;
  std::string x = "tokens";
  for (int layer = 0; layer < num_layers; ++layer) {
    const std::string p = NumberedName("l", layer) + "_";
    graph.Add(ElementwiseOp(p + "rms_in", {batch, hidden}, f16, x, p + "x", kLayerNormCost));
    AddDecodeAttention(graph, p, batch, hidden, heads, ctx);
    graph.Add(BinaryOp(p + "residual1", {batch, hidden}, f16, p + "x", p + "attn", p + "r1"));
    graph.Add(
        ElementwiseOp(p + "rms2", {batch, hidden}, f16, p + "r1", p + "n2", kLayerNormCost));
    // Gated FFN: down(silu(gate(x)) * up(x)).
    AddMatMul(graph, p + "gate", p + "n2", p + "wg", p + "g", batch, hidden, ffn);
    AddMatMul(graph, p + "up", p + "n2", p + "wu", p + "u", batch, hidden, ffn);
    graph.Add(ElementwiseOp(p + "silu", {batch, ffn}, f16, p + "g", p + "gs", kSiluCost));
    graph.Add(BinaryOp(p + "gatemul", {batch, ffn}, f16, p + "gs", p + "u", p + "gu"));
    AddMatMul(graph, p + "down", p + "gu", p + "wd", p + "ff", batch, ffn, hidden);
    graph.Add(BinaryOp(p + "residual2", {batch, hidden}, f16, p + "r1", p + "ff", p + "out"));
    x = p + "out";
  }
  return graph;
}

Graph BuildRetNetLayer(std::int64_t batch, std::int64_t ctx) {
  (void)ctx;  // Retention replaces the KV cache with a per-head state matrix.
  Graph graph("RetNet-1.3B");
  const DataType f16 = DataType::kF16;
  const std::int64_t h = 2048;
  const std::int64_t e = 8;
  const std::int64_t d = h / e;  // 256: RetNet uses wide heads.
  const std::string p = "l0_";

  graph.Add(ElementwiseOp(p + "ln_in", {batch, h}, f16, "tokens", p + "x", kLayerNormCost));
  for (const char* which : {"q", "k", "v"}) {
    graph.Add(ContractionOp(p + which + "_proj",
                            {{"b", batch, false}, {"e", e, false}, {"d", d, false},
                             {"k", h, false}},
                            {{p + "x", {"b", "k"}}, {p + "w" + which, {"k", "e", "d"}}},
                            {p + which, {"b", "e", "d"}}, f16));
    graph.MarkWeight(p + "w" + which);
  }
  // Recurrent retention: state S[b,e,i,j] = decay*S + K[b,e,i] x V[b,e,j];
  // readout O[b,e,j] += Q[b,e,i] * S[b,e,i,j].
  graph.Add(ContractionOp(p + "state_update",
                          {{"b", batch, false}, {"e", e, false}, {"i", d, false},
                           {"j", d, false}},
                          {{p + "k", {"b", "e", "i"}}, {p + "v", {"b", "e", "j"}}},
                          {p + "outer", {"b", "e", "i", "j"}}, f16));
  graph.Add(BinaryOp(p + "decay_add", {batch, e, d, d}, f16, p + "outer", p + "state",
                     p + "state_next", 2.0));
  graph.MarkWeight(p + "state");  // Persistent recurrent state.
  graph.Add(ContractionOp(p + "readout",
                          {{"b", batch, false}, {"e", e, false}, {"j", d, false},
                           {"i", d, false}},
                          {{p + "q", {"b", "e", "i"}}, {p + "state_next", {"b", "e", "i", "j"}}},
                          {p + "ret", {"b", "e", "j"}}, f16));
  graph.Add(ContractionOp(p + "out_proj",
                          {{"b", batch, false}, {"n", h, false}, {"e", e, false},
                           {"d", d, false}},
                          {{p + "ret", {"b", "e", "d"}}, {p + "wo", {"e", "d", "n"}}},
                          {p + "attn", {"b", "n"}}, f16));
  graph.MarkWeight(p + "wo");
  graph.Add(BinaryOp(p + "residual1", {batch, h}, f16, p + "x", p + "attn", p + "r1"));

  // Gated FFN (2x hidden).
  graph.Add(ElementwiseOp(p + "ln2", {batch, h}, f16, p + "r1", p + "n2", kLayerNormCost));
  AddMatMul(graph, p + "gate", p + "n2", p + "wg", p + "g", batch, h, 2 * h);
  AddMatMul(graph, p + "up", p + "n2", p + "wu", p + "u", batch, h, 2 * h);
  graph.Add(ElementwiseOp(p + "silu", {batch, 2 * h}, f16, p + "g", p + "gs", kSiluCost));
  graph.Add(BinaryOp(p + "gatemul", {batch, 2 * h}, f16, p + "gs", p + "u", p + "gu"));
  AddMatMul(graph, p + "down", p + "gu", p + "wd", p + "ff", batch, 2 * h, h);
  graph.Add(BinaryOp(p + "residual2", {batch, h}, f16, p + "r1", p + "ff", p + "out"));
  return graph;
}

Graph BuildOpt1p3b(std::int64_t batch) { return BuildOptLayer("OPT-1.3B", 2048, 32, batch); }
Graph BuildOpt6p7b(std::int64_t batch) { return BuildOptLayer("OPT-6.7B", 4096, 32, batch); }
Graph BuildOpt13b(std::int64_t batch) { return BuildOptLayer("OPT-13B", 5120, 40, batch); }
Graph BuildLlama2_7b(std::int64_t batch) {
  return BuildLlamaLayer("Llama2-7B", 4096, 32, 11008, batch);
}
Graph BuildLlama2_13b(std::int64_t batch) {
  return BuildLlamaLayer("Llama2-13B", 5120, 40, 13824, batch);
}
Graph BuildRetNet1p3b(std::int64_t batch) { return BuildRetNetLayer(batch); }

}  // namespace t10
