// LLM serving scenario (paper §6.7): compile an OPT-13B decode layer for the
// full 1,472-core chip, sweep the batch size, and compare against an
// A100-style roofline. Shows why inter-core connected chips shine at small
// decode batches: the weights never leave the distributed on-chip memory.
// Then compiles the full 40-layer model as a pipeline over the fewest chips
// that hold it.
//
//   $ ./examples/llm_decode [max_batch]

#include <cstdio>
#include <cstdlib>

#include "src/baselines/gpu_roofline.h"
#include "src/core/compiler.h"
#include "src/core/sharded_compiler.h"
#include "src/models/zoo.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace t10;
  const std::int64_t max_batch = argc > 1 ? std::atoll(argv[1]) : 32;

  ChipSpec chip = ChipSpec::IpuMk2();
  Compiler compiler(chip);
  GpuRooflineExecutor gpu(GpuSpec::A100());

  std::printf("OPT-13B decode layer on %s vs %s\n\n", chip.name.c_str(),
              gpu.spec().name.c_str());
  Table table({"batch", "IPU+T10 latency", "tokens/s (layer)", "A100 latency", "IPU speedup"});
  for (std::int64_t batch = 1; batch <= max_batch; batch *= 2) {
    Graph layer = BuildOpt13b(batch);
    CompiledModel model = compiler.Compile(layer);
    GpuModelResult a100 = gpu.Run(layer);
    if (!model.fits) {
      table.AddRow({std::to_string(batch), "*", "*", FormatSeconds(a100.TotalSeconds()), "-"});
      continue;
    }
    const double latency = model.TotalSeconds();
    table.AddRow({std::to_string(batch), FormatSeconds(latency),
                  FormatDouble(static_cast<double>(batch) / latency, 0),
                  FormatSeconds(a100.TotalSeconds()),
                  FormatDouble(a100.TotalSeconds() / latency, 2) + "x"});
  }
  table.Print();

  // Where does the time go at batch 1?
  Graph layer = BuildOpt13b(1);
  CompiledModel model = compiler.Compile(layer);
  if (model.fits) {
    std::printf("\nBatch-1 breakdown: compute %s, inter-core transfer %s (%.0f%%), setup %s\n",
                FormatSeconds(model.ComputeSeconds()).c_str(),
                FormatSeconds(model.ExchangeSeconds()).c_str(),
                100.0 * model.ExchangeSeconds() / model.TotalSeconds(),
                FormatSeconds(model.SetupSeconds()).c_str());
    std::printf("Idle-state weights: %s per core (%.0f%% of scratchpad)\n",
                FormatBytes(model.idle_bytes_per_core).c_str(),
                100.0 * static_cast<double>(model.idle_bytes_per_core) /
                    static_cast<double>(chip.core_memory_bytes));

    // Full 40-layer OPT-13B served as a multi-chip pipeline (paper §6.7:
    // whole-model performance follows from single-layer performance because
    // the boundary activations are tiny).
    constexpr int kMaxChips = 64;
    const Graph full = BuildOptLayer("OPT-13B", 5120, 40, /*batch=*/1, /*ctx=*/1024,
                                     /*num_layers=*/40);
    const ShardedCompiledModel pipeline = CompileOnFewestChips(full, chip, kMaxChips);
    if (!pipeline.fits) {
      std::printf("\nFull OPT-13B (40 layers): does not fit %d chips: %s\n", kMaxChips,
                  pipeline.unfit_reason.c_str());
      return 1;
    }
    std::printf("\nFull OPT-13B (40 layers): %d chips, token latency %s, %.0f tokens/s "
                "steady-state (boundaries %s/token, %.2f%% of token latency)\n",
                pipeline.num_stages(), FormatSeconds(pipeline.TotalSeconds()).c_str(),
                1.0 / pipeline.BottleneckSeconds(),
                FormatBytes(pipeline.partition.BoundaryBytes()).c_str(),
                100.0 * pipeline.partition.handoff_seconds / pipeline.TotalSeconds());
  }
  return 0;
}
