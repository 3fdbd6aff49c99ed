// Figure 19: compilation time vs resulting execution latency under different
// search-constraint settings. Paper: a strict setting compiling in ~1 minute
// already yields near-optimal latency.

#include "bench/common.h"
#include "src/core/compiler.h"
#include "src/models/zoo.h"

namespace t10 {
namespace {

void Run() {
  bench::Header("Figure 19", "Constraint strictness: compile time vs execution latency");
  ChipSpec chip = ChipSpec::IpuMk2();

  struct Setting {
    const char* label;
    double parallelism;
    double padding;
  };
  const Setting settings[] = {
      {"strict   (par 0.95, pad 0.95)", 0.95, 0.95},
      {"default  (par 0.90, pad 0.90)", 0.90, 0.90},
      {"loose    (par 0.70, pad 0.85)", 0.70, 0.85},
      {"loosest  (par 0.50, pad 0.80)", 0.50, 0.80},
  };

  for (const ModelInfo& info : EvaluationModels()) {
    // Quick mode (CI smoke) compiles the smallest batch instead of the middle one.
    const std::int64_t batch = bench::QuickMode() ? info.batch_sizes.front()
                                                  : info.batch_sizes[info.batch_sizes.size() / 2];
    std::printf("\n%s (BS %lld):\n", info.name.c_str(), static_cast<long long>(batch));
    Table table({"Constraints", "Compile", "Exec latency", "vs loosest"});
    Graph graph = info.build(batch);
    double loosest_latency = 0.0;
    std::vector<std::vector<std::string>> rows;
    for (const Setting& s : settings) {
      CompileOptions options;
      options.constraints.parallelism_fraction = s.parallelism;
      options.constraints.padding_threshold = s.padding;
      Compiler compiler(chip, options);
      CompiledModel model = compiler.Compile(graph);
      if (!model.fits) {
        rows.push_back({s.label, "*", "*", "*"});
        continue;
      }
      loosest_latency = model.TotalSeconds();  // Last setting is loosest.
      rows.push_back({s.label, FormatSeconds(model.compile_wall_seconds),
                      bench::Ms(model.TotalSeconds()), ""});
    }
    for (auto& row : rows) {
      if (row[2] != "*") {
        double latency = std::strtod(row[2].c_str(), nullptr) * 1e-3;
        row[3] = FormatDouble(loosest_latency > 0 ? latency / loosest_latency : 1.0, 3) + "x";
      }
      table.AddRow(row);
    }
    table.Print();
  }
  bench::Note(
      "Paper Fig 19: stricter constraints compile much faster with near-optimal latency; the "
      "same holds here (strict latency within a few percent of loosest).");
}

}  // namespace
}  // namespace t10

int main() {
  t10::Run();
  return 0;
}
