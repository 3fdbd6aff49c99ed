// Figure 17: candidate execution plans of representative operators in the
// (memory, time) plane. Stars = T10's Pareto-optimal plans; triangles = the
// plans PopART and Roller would use. Paper: T10's space usually contains a
// plan that is both faster and leaner than PopART's, and Roller's
// biggest-tile plan is capped by the VGM reserve.

#include "bench/common.h"
#include "src/baselines/vgm.h"
#include "src/core/compiler.h"
#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

struct Case {
  std::string label;
  Graph graph;
  int op_index;  // Representative operator within the graph.
};

int FindOp(const Graph& g, const std::string& name) {
  for (int i = 0; i < g.num_ops(); ++i) {
    if (g.op(i).name() == name) {
      return i;
    }
  }
  return 0;
}

void Run() {
  bench::Header("Figure 17", "Candidate plans: per-core memory vs execution time");
  ChipSpec chip = ChipSpec::IpuMk2();
  Compiler compiler(chip);
  VgmCompiler roller(chip, VgmPlanner::kRoller);
  VgmCompiler popart(chip, VgmPlanner::kPopart);

  std::vector<Case> cases;
  {
    Graph g = BuildResNet18(32);
    cases.push_back({"Conv (ResNet-BS32, s2b1_c1)", std::move(g), 0});
    cases.back().op_index = FindOp(cases.back().graph, "s2b1_c1");
  }
  {
    Graph g = BuildBertLarge(8, 1);
    cases.push_back({"MatMul (BERT-BS8, ffn1)", std::move(g), 0});
    cases.back().op_index = FindOp(cases.back().graph, "l0_ffn1");
  }
  {
    Graph g = BuildVitBase(16, 1);
    cases.push_back({"MatMul (ViT-BS16, ffn2)", std::move(g), 0});
    cases.back().op_index = FindOp(cases.back().graph, "l0_ffn2");
  }
  {
    Graph g = BuildNerf(8);
    cases.push_back({"MatMul (NeRF-BS8, fc2)", std::move(g), 0});
    cases.back().op_index = FindOp(cases.back().graph, "fc2");
  }

  for (Case& c : cases) {
    const Operator& op = c.graph.op(c.op_index);
    IntraOpResult result = compiler.SearchOp(op);
    std::printf("\n%s — %zu Pareto plans (stars):\n", c.label.c_str(), result.pareto.size());
    Table table({"plan", "per-core memory", "exec time", "steps", "cores"});
    const std::size_t stride = std::max<std::size_t>(1, result.pareto.size() / 12);
    for (std::size_t i = 0; i < result.pareto.size(); i += stride) {
      const PlanCandidate& cand = result.pareto[i];
      table.AddRow({NumberedName("*", i), FormatBytes(cand.predicted.per_core_bytes),
                    bench::Ms(cand.predicted.total_seconds()),
                    std::to_string(cand.predicted.steps),
                    std::to_string(cand.predicted.cores_used)});
    }
    // Baseline triangles: cost the same operator under both VGM planners.
    const std::int64_t reserve = roller.VgmReserveBytes(c.graph);
    const std::int64_t budget = chip.core_memory_bytes - reserve - chip.shift_buffer_bytes;
    if (auto cost = roller.PlanOp(op, budget)) {
      table.AddRow({"Roller", FormatBytes(cost->tile_bytes + reserve),
                    bench::Ms(cost->total_seconds()), std::to_string(cost->waves), "1472"});
    }
    if (auto cost = popart.PlanOp(op, budget)) {
      table.AddRow({"PopART", FormatBytes(cost->tile_bytes + reserve),
                    bench::Ms(cost->total_seconds()), std::to_string(cost->waves), "1472"});
    }
    table.Print();
  }
  bench::Note(
      "Stars span the memory/time trade-off; the VGM baselines sit above/right of the frontier "
      "because the VGM reserve counts against their memory and their transfers are slower.");
}

}  // namespace
}  // namespace t10

int main() {
  t10::Run();
  return 0;
}
