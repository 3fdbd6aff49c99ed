// The DNN models of the paper's evaluation (Table 2), built as operator
// graphs. Transformers carry explicit batch/head axes so attention needs no
// reshape operators; see each builder for the shape conventions and the
// documented simplifications (DESIGN.md).

#ifndef T10_SRC_MODELS_ZOO_H_
#define T10_SRC_MODELS_ZOO_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/ir/graph.h"

namespace t10 {

// BERT-Large encoder: 24 layers, hidden 1024, 16 heads, FFN 4096, seq 128.
Graph BuildBertLarge(std::int64_t batch, int num_layers = 24);

// ViT-Base: 12 layers, hidden 768, 12 heads, FFN 3072, 196 patches (the
// class token is folded into the patch count).
Graph BuildVitBase(std::int64_t batch, int num_layers = 12);

// ResNet-18 at 224x224. The stem's conv+maxpool is modelled as a single
// stride-4 7x7 convolution and 1x1 downsample convs as 3x3 (halo-shape
// reasons); parameter count and per-stage shapes otherwise follow He et al.
Graph BuildResNet18(std::int64_t batch);

// NeRF-style fully-connected network: ~24K parameters (width 64), batch unit
// = 16384 ray samples.
Graph BuildNerf(std::int64_t batch, int num_layers = 5);

// One decoder layer at decode time (one new token per sequence) with a KV
// cache of `ctx` tokens, standard transformer (OPT / Llama2) or RetNet
// retention. `batch` = concurrent sequences. The OPT and Llama2 builders
// stack `num_layers` such layers, each reading the previous one's output.
Graph BuildOptLayer(const std::string& name, std::int64_t hidden, std::int64_t heads,
                    std::int64_t batch, std::int64_t ctx = 1024, int num_layers = 1);
Graph BuildLlamaLayer(const std::string& name, std::int64_t hidden, std::int64_t heads,
                      std::int64_t ffn, std::int64_t batch, std::int64_t ctx = 1024,
                      int num_layers = 1);
Graph BuildRetNetLayer(std::int64_t batch, std::int64_t ctx = 1024);

// Convenience wrappers for the sizes in Table 2 / Fig 23.
// A full training step (forward, backward, SGD update) of an MLP — the
// backward contractions dX = dY.W^T and dW = X^T.dY compile through the same
// pipeline (paper §4.2: inference and training operators).
Graph BuildMlpTrainingStep(std::int64_t batch, int num_layers = 4, std::int64_t width = 256);

Graph BuildOpt1p3b(std::int64_t batch);
Graph BuildOpt6p7b(std::int64_t batch);
Graph BuildOpt13b(std::int64_t batch);
Graph BuildLlama2_7b(std::int64_t batch);
Graph BuildLlama2_13b(std::int64_t batch);
Graph BuildRetNet1p3b(std::int64_t batch);

struct ModelInfo {
  std::string name;
  std::function<Graph(std::int64_t)> build;
  std::vector<std::int64_t> batch_sizes;  // The sweep used by the benches.
};

// The DNN inference set of §6.2-§6.6 (BERT, ViT, ResNet, NeRF).
const std::vector<ModelInfo>& EvaluationModels();

// The LLM decode set of §6.7 (OPT, Llama2, RetNet layers).
const std::vector<ModelInfo>& LlmModels();

}  // namespace t10

#endif  // T10_SRC_MODELS_ZOO_H_
