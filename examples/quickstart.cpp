// Quickstart: compile one MatMul for a simulated inter-core connected chip,
// inspect the chosen compute-shift plan, execute it byte by byte on the
// simulated machine, and verify the result against a single-core reference.
//
//   $ ./examples/quickstart

#include <cmath>
#include <cstdio>

#include "src/core/compiler.h"
#include "src/core/program_executor.h"
#include "src/ir/builder.h"
#include "src/util/logging.h"
#include "src/util/table.h"

int main() {
  using namespace t10;
  SetMinLogSeverity(LogSeverity::kInfo);

  // A small chip keeps the byte-level execution fast; scale num_cores up to
  // 1472 for IPU-MK2-sized planning.
  ChipSpec chip = ChipSpec::ScaledIpu(16);
  std::printf("Chip: %s (%d cores x %s scratchpad, %.1f GB/s links)\n\n", chip.name.c_str(),
              chip.num_cores, FormatBytes(chip.core_memory_bytes).c_str(),
              chip.link_bandwidth / 1e9);

  // C[m,n] += A[m,k] * B[k,n].
  Graph graph("quickstart");
  graph.Add(MatMulOp("mm", /*m=*/32, /*k=*/48, /*n=*/16, DataType::kF32, "A", "B", "C"));
  graph.MarkWeight("B");

  Compiler compiler(chip);
  CompiledModel model = compiler.Compile(graph);
  if (!model.fits) {
    std::printf("model does not fit on-chip memory\n");
    return 1;
  }
  const CompiledOp& op = model.ops.front();
  std::printf("Active plan : %s\n", op.active_plan.DebugString().c_str());
  std::printf("Idle plan   : %s\n", op.idle_plan.DebugString().c_str());
  std::printf("Predicted   : %s   Measured: %s  (cost model vs hardware ground truth)\n",
              FormatSeconds(op.predicted.total_seconds()).c_str(),
              FormatSeconds(op.measured.total_seconds()).c_str());
  std::printf("Per-core mem: %s, %lld compute-shift steps, %s shifted per core\n\n",
              FormatBytes(op.measured.per_core_bytes).c_str(),
              static_cast<long long>(op.measured.steps),
              FormatBytes(op.measured.shift_bytes_per_core).c_str());

  // Execute the exact schedule over real data — per-core windows in the
  // simulated scratchpads, slabs shifted over the links — and compare to a
  // reference.
  std::vector<HostTensor> inputs = {RandomHostTensor({32, 48}, 1),
                                    RandomHostTensor({48, 16}, 2)};
  Machine machine(chip);
  ProgramExecutor executor(machine, op.active_plan);
  ProgramRunStats stats;
  StatusOr<HostTensor> run = executor.Run(inputs, &stats);
  if (!run.ok()) {
    std::printf("execution failed: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const HostTensor& distributed = *run;
  HostTensor reference = ReferenceExecute(graph.op(0), inputs);
  double max_err = 0.0;
  for (std::size_t i = 0; i < reference.data.size(); ++i) {
    max_err = std::max(max_err,
                       static_cast<double>(std::abs(distributed.data[i] - reference.data[i])));
  }
  std::printf("Byte-level run: %lld steps, %s sent over links in total, %s peak/core, max "
              "|err| vs reference = %.2e\n",
              static_cast<long long>(stats.steps),
              FormatBytes(stats.bytes_sent_total).c_str(),
              FormatBytes(stats.peak_core_bytes).c_str(), max_err);
  std::printf("%s\n", max_err < 1e-3 ? "OK: compute-shift execution matches the reference."
                                     : "MISMATCH!");
  return max_err < 1e-3 ? 0 : 1;
}
