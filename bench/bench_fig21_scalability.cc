// Figure 21: performance on IPU devices with different core counts — 368 and
// 736 (restricted chips), 1472 (one MK2), 2944/5888 (V-IPU multi-chip, with
// 26-33% effective inter-core bandwidth loss). Paper: T10 always outperforms
// Roller; with multiple chips Roller's transfer time can even grow, while
// T10's does not.

#include "bench/common.h"
#include "src/baselines/vgm.h"
#include "src/core/compiler.h"
#include "src/core/sharded_compiler.h"
#include "src/hardware/cluster_spec.h"
#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

ChipSpec ChipWithCores(int cores) {
  if (cores <= 1472) {
    return ChipSpec::ScaledIpu(cores);
  }
  return ChipSpec::VIpu(cores / 1472);
}

// A 4-layer square MLP: width H gives 4 * H*H F16 weight tensors, the knob
// the sweep turns to find the largest model a cluster can hold resident.
Graph DeepMlp(std::int64_t width) {
  Graph g(NumberedName("deep-mlp-", width));
  std::string in = "x";
  for (int layer = 0; layer < 4; ++layer) {
    const std::string w = NumberedName("w", layer);
    const std::string out = layer == 3 ? "y" : NumberedName("h", layer);
    g.Add(MatMulOp(NumberedName("fc", layer), 32, width, width, DataType::kF16,
                   in, w, out));
    g.MarkWeight(w);
    in = out;
  }
  return g;
}

struct SweepPoint {
  int chips = 0;
  std::int64_t max_width = 0;
  std::int64_t max_weight_bytes = 0;
  double bottleneck_seconds = 0.0;
  double handoff_seconds = 0.0;
  int stages = 0;
};

// Multi-chip sharded compilation: the max servable model must grow with the
// chip count — the whole point of partitioning one model across a cluster.
void MultiChipSweep() {
  std::printf("\n");
  bench::Header("Multi-chip scaling",
                "Max servable model vs chip count (sharded pipeline-parallel)");
  const ChipSpec chip = ChipSpec::ScaledIpu(16);
  const std::int64_t step = bench::QuickMode() ? 512 : 256;
  const std::int64_t limit = bench::QuickMode() ? 4096 : 8192;

  std::vector<SweepPoint> points;
  Table table({"Chips", "Max width", "Weights", "Stages", "Bottleneck", "Handoff"});
  for (const int chips : {1, 2, 4}) {
    const ClusterSpec cluster = ClusterSpec::Homogeneous(chip, chips);
    SweepPoint point;
    point.chips = chips;
    for (std::int64_t width = step; width <= limit; width += step) {
      Graph graph = DeepMlp(width);
      ShardedCompiler compiler(cluster);
      ShardedCompiledModel model = compiler.Compile(graph);
      if (!model.fits) {
        break;  // Widths are monotone in weight bytes: the first miss ends it.
      }
      point.max_width = width;
      point.max_weight_bytes = 4 * width * width * 2;  // 4 F16 layers.
      point.bottleneck_seconds = model.BottleneckSeconds();
      point.handoff_seconds = model.partition.handoff_seconds;
      point.stages = model.num_stages();
    }
    points.push_back(point);
    table.AddRow({std::to_string(chips), std::to_string(point.max_width),
                  FormatDouble(static_cast<double>(point.max_weight_bytes) / (1 << 20), 1) +
                      "MiB",
                  std::to_string(point.stages), bench::Ms(point.bottleneck_seconds),
                  bench::Ms(point.handoff_seconds)});
  }
  table.Print();
  bench::Note(
      "The largest resident model grows with the chip count: each added chip "
      "contributes its distributed scratchpad, at the price of one more "
      "boundary handoff over the inter-chip link.");

  // JSON baseline for regression tracking (BENCH_multichip_scaling.json).
  std::vector<bench::JsonObject> scaling;
  for (const SweepPoint& p : points) {
    scaling.push_back(bench::JsonObject()
                          .Add("chips", p.chips)
                          .Add("max_width", p.max_width)
                          .Add("max_weight_bytes", p.max_weight_bytes)
                          .Add("stages", p.stages)
                          .Add("bottleneck_ms", p.bottleneck_seconds * 1e3, 3)
                          .Add("handoff_ms", p.handoff_seconds * 1e3, 3));
  }
  const double growth = points.front().max_weight_bytes > 0
                            ? static_cast<double>(points.back().max_weight_bytes) /
                                  static_cast<double>(points.front().max_weight_bytes)
                            : 0.0;
  bench::WriteJsonBaseline(bench::JsonObject()
                               .Add("bench", "multichip_scaling")
                               .Add("layers", 4)
                               .Add("scaling", scaling)
                               .Add("capacity_growth_4_chips", growth, 2));
}

void Run() {
  bench::Header("Figure 21", "Scaling with core count (368 -> 5888 cores)");
  const int core_counts[] = {368, 736, 1472, 2944, 5888};

  for (const ModelInfo& info : EvaluationModels()) {
    const std::int64_t batch =
        bench::QuickMode() ? info.batch_sizes.front() : info.batch_sizes[1];
    std::printf("\n%s BS%lld:\n", info.name.c_str(), static_cast<long long>(batch));
    Table table({"Cores", "Roller total", "Roller transfer", "T10 total", "T10 transfer",
                 "T10 speedup"});
    Graph graph = info.build(batch);
    for (int cores : core_counts) {
      ChipSpec chip = ChipWithCores(cores);
      Compiler t10c(chip);
      VgmCompiler roller(chip, VgmPlanner::kRoller);
      CompiledModel t = t10c.Compile(graph);
      VgmModelResult r = roller.Compile(graph);
      std::string speedup = "-";
      if (t.fits && r.fits) {
        speedup = FormatDouble(r.TotalSeconds() / t.TotalSeconds(), 2) + "x";
      }
      table.AddRow({std::to_string(cores) + (cores > 1472 ? " (V-IPU)" : ""),
                    r.fits ? bench::Ms(r.TotalSeconds()) : "*",
                    r.fits ? bench::Ms(r.TransferSeconds()) : "*",
                    t.fits ? bench::Ms(t.TotalSeconds()) : "*",
                    t.fits ? bench::Ms(t.ExchangeSeconds()) : "*", speedup});
    }
    table.Print();
  }
  bench::Note(
      "Paper: both scale with cores; crossing the chip boundary (>1472) costs Roller extra "
      "transfer time while T10's stays flat; T10 often matches Roller with half the cores.");
  MultiChipSweep();
}

}  // namespace
}  // namespace t10

int main() {
  t10::Run();
  return 0;
}
