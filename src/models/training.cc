// Training-step graphs (paper §4.2: "T10 supports all common operators ...
// in both inference and training"). The backward pass of a dense layer is
// two more contractions — dX[m,k] += dY[m,n] * W[k,n] and
// dW[k,n] += X[m,k] * dY[m,n] — plus elementwise gradient fixups, all
// expressible in the same tensor-expression IR, so the whole training step
// compiles through the identical pipeline.

#include <string>

#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/util/strings.h"

namespace t10 {

Graph BuildMlpTrainingStep(std::int64_t batch, int num_layers, std::int64_t width) {
  Graph graph("mlp-train");
  const DataType f16 = DataType::kF16;

  // Forward pass: h_{i+1} = relu(h_i @ W_i). Activations are kept (consumed
  // again by the backward pass), which is exactly the liveness pattern that
  // stresses the memory planner.
  std::vector<std::string> activations = {"x"};
  for (int i = 0; i < num_layers; ++i) {
    const std::string p = NumberedName("l", i);
    graph.Add(ContractionOp(p + "_fwd",
                            {{"m", batch, false}, {"n", width, false}, {"k", width, false}},
                            {{activations.back(), {"m", "k"}}, {p + "_w", {"k", "n"}}},
                            {p + "_z", {"m", "n"}}, f16));
    graph.MarkWeight(p + "_w");
    graph.Add(ElementwiseOp(p + "_relu", {batch, width}, f16, p + "_z", p + "_h", 1.0));
    activations.push_back(p + "_h");
  }

  // Loss gradient seed.
  graph.Add(ElementwiseOp("loss_grad", {batch, width}, f16, activations.back(),
                          NumberedName("d", num_layers), 2.0));

  // Backward pass, layer by layer.
  for (int i = num_layers - 1; i >= 0; --i) {
    const std::string p = NumberedName("l", i);
    const std::string dy = NumberedName("d", i + 1);
    // Gradient through the activation: dZ = dY * relu'(Z).
    graph.Add(BinaryOp(p + "_dact", {batch, width}, f16, dy, p + "_z", p + "_dz", 2.0));
    // Weight gradient: dW[k,n] += X[m,k] * dZ[m,n].
    graph.Add(ContractionOp(p + "_dw",
                            {{"k", width, false}, {"n", width, false}, {"m", batch, false}},
                            {{activations[static_cast<std::size_t>(i)], {"m", "k"}},
                             {p + "_dz", {"m", "n"}}},
                            {p + "_dwout", {"k", "n"}}, f16));
    // Input gradient: dX[m,k] += dZ[m,n] * W[k,n].
    graph.Add(ContractionOp(p + "_dx",
                            {{"m", batch, false}, {"k", width, false}, {"n", width, false}},
                            {{p + "_dz", {"m", "n"}}, {p + "_w", {"k", "n"}}},
                            {NumberedName("d", i), {"m", "k"}}, f16));
    // SGD update (elementwise, weight and gradient shapes match).
    graph.Add(BinaryOp(p + "_sgd", {width, width}, f16, p + "_w", p + "_dwout",
                       p + "_w_next", 2.0));
  }
  return graph;
}

}  // namespace t10
