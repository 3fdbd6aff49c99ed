// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out:
//   (a) inter-operator reconciliation on/off (setup-time contribution),
//   (b) shift-buffer size (paper §5 argues 8 KB is negligible overhead),
//   (c) multi-dim temporal factors on/off (search-space richness),
//   (d) liveness-based memory reuse,
//   (e) full-depth LLMs compiled as multi-chip pipelines.
// T10_BENCH_QUICK=1 runs fewer models and buffer sizes and only OPT-13B in (e).

#include "bench/common.h"
#include "src/core/compiler.h"
#include "src/core/memory_planner.h"
#include "src/core/sharded_compiler.h"
#include "src/models/zoo.h"

namespace t10 {
namespace {

void AblateInterOp() {
  std::printf("\n(a) Inter-operator reconciliation:\n");
  ChipSpec chip = ChipSpec::IpuMk2();
  Table table({"Model", "BS", "reconcile ON", "reconcile OFF", "saving"});
  for (const ModelInfo& info : EvaluationModels()) {
    if (bench::QuickMode() && (info.name == "BERT" || info.name == "ViT")) {
      continue;  // The transformers take most of the compile time.
    }
    const std::int64_t batch = info.batch_sizes[info.batch_sizes.size() / 2];
    Graph graph = info.build(batch);
    CompileOptions on;
    CompileOptions off;
    off.inter_op_reconcile = false;
    CompiledModel with = Compiler(chip, on).Compile(graph);
    CompiledModel without = Compiler(chip, off).Compile(graph);
    if (!with.fits || !without.fits) {
      table.AddRow({info.name, std::to_string(batch), "*", "*", "*"});
      continue;
    }
    table.AddRow({info.name, std::to_string(batch), bench::Ms(with.TotalSeconds()),
                  bench::Ms(without.TotalSeconds()),
                  bench::Pct(1.0 - with.TotalSeconds() / without.TotalSeconds())});
  }
  table.Print();
}

void AblateShiftBuffer() {
  std::printf("\n(b) Shift buffer size (paper default 8KiB):\n");
  Table table({"Buffer", "BERT BS4 total", "per-core memory lost to buffer"});
  const std::vector<std::int64_t> sizes_kib =
      bench::QuickMode() ? std::vector<std::int64_t>{8, 128}
                         : std::vector<std::int64_t>{1, 4, 8, 32, 128};
  for (const std::int64_t kib : sizes_kib) {
    ChipSpec chip = ChipSpec::IpuMk2();
    chip.shift_buffer_bytes = kib * 1024;
    Compiler compiler(chip);
    Graph graph = BuildBertLarge(4);
    CompiledModel model = compiler.Compile(graph);
    table.AddRow({FormatBytes(chip.shift_buffer_bytes),
                  model.fits ? bench::Ms(model.TotalSeconds()) : "*",
                  bench::Pct(static_cast<double>(chip.shift_buffer_bytes) /
                             static_cast<double>(chip.core_memory_bytes))});
  }
  table.Print();
}

void AblateTemporalDims() {
  std::printf("\n(c) Max temporally-split dims per tensor:\n");
  ChipSpec chip = ChipSpec::IpuMk2();
  Table table({"max dims", "ViT BS8 total", "compile", "filtered plans (ffn op)"});
  for (int dims : {1, 2}) {
    CompileOptions options;
    options.constraints.max_rotating_dims = dims;
    Compiler compiler(chip, options);
    Graph graph = BuildVitBase(8);
    CompiledModel model = compiler.Compile(graph);
    std::int64_t filtered = 0;
    for (const CompiledOp& op : model.ops) {
      filtered = std::max(filtered, op.filtered_count);
    }
    table.AddRow({std::to_string(dims), model.fits ? bench::Ms(model.TotalSeconds()) : "*",
                  FormatSeconds(model.compile_wall_seconds), std::to_string(filtered)});
  }
  table.Print();
}

void MemoryReuseReport() {
  std::printf("\n(d) Liveness-based memory reuse (paper §4.4):\n");
  ChipSpec chip = ChipSpec::IpuMk2();
  Compiler compiler(chip);
  Table table({"Model", "BS", "peak/core", "reuse-free layout", "saving"});
  for (const ModelInfo& info : EvaluationModels()) {
    const std::int64_t batch = info.batch_sizes.front();
    Graph graph = info.build(batch);
    CompiledModel model = compiler.Compile(graph);
    if (!model.fits) {
      table.AddRow({info.name, std::to_string(batch), "*", "*", "*"});
      continue;
    }
    MemoryPlan plan = PlanMemory(model, graph, chip);
    table.AddRow({info.name, std::to_string(batch), FormatBytes(plan.peak_bytes),
                  FormatBytes(plan.NaiveBytes()),
                  bench::Pct(1.0 - static_cast<double>(plan.peak_bytes) /
                                       static_cast<double>(plan.NaiveBytes()))});
  }
  table.Print();
}

void PipelineReport() {
  std::printf("\n(e) Multi-chip pipelining of full LLMs (paper §6.7/§7):\n");
  constexpr int kMaxChips = 64;
  const ChipSpec chip = ChipSpec::IpuMk2();
  struct Case {
    const char* name;
    Graph full;
  };
  std::vector<Case> cases;
  if (!bench::QuickMode()) {
    cases.push_back({"OPT-6.7B", BuildOptLayer("OPT-6.7B", 4096, 32, 1, 1024, 32)});
  }
  cases.push_back({"OPT-13B", BuildOptLayer("OPT-13B", 5120, 40, 1, 1024, 40)});
  if (!bench::QuickMode()) {
    cases.push_back(
        {"Llama2-13B", BuildLlamaLayer("Llama2-13B", 5120, 40, 13824, 1, 1024, 40)});
  }
  Table table({"Model", "chips", "token latency", "tokens/s", "boundary overhead"});
  for (const Case& c : cases) {
    ShardedCompiledModel model = CompileOnFewestChips(c.full, chip, kMaxChips);
    if (!model.fits) {
      table.AddRow({c.name, "*", "*", "*", "*"});
      continue;
    }
    table.AddRow({c.name, std::to_string(model.num_stages()), bench::Ms(model.TotalSeconds()),
                  FormatDouble(1.0 / model.BottleneckSeconds(), 0),
                  bench::Pct(model.partition.handoff_seconds / model.TotalSeconds())});
  }
  table.Print();
}

}  // namespace
}  // namespace t10

int main() {
  t10::bench::Header("Ablations", "design-choice sensitivity (this repo's additions)");
  t10::AblateInterOp();
  t10::AblateShiftBuffer();
  t10::AblateTemporalDims();
  t10::MemoryReuseReport();
  t10::PipelineReport();
  t10::bench::Note("See DESIGN.md for the rationale behind each knob.");
  return 0;
}
