// Static verifier for compute-shift programs (paper §4).
//
// T10's execution model is fully deterministic, so whole-program invariants
// are checkable before anything runs: per-core scratchpad capacity, ring
// conservation of every ShiftSet, rotation-pace divisibility (the `rp` rule
// in plan.h), step-count agreement across the operands of one operator, and
// the memory-monotone trajectory of Algorithm 1's reconciliation. The rules
// here check ExecutionPlans, lowered DevicePrograms, whole ir::Graphs, the
// liveness-based MemoryPlan, and compiled models without executing them,
// emitting structured diagnostics (diagnostics.h).
//
// The same rule implementations back three layers:
//   1. this library API (Verifier),
//   2. `t10c --verify[=strict]`, which runs the full pass after compilation
//      and exits with code 3 on a failed verification, and
//   3. in-pipeline assertions in Compiler::Compile, ProgramExecutor and
//      PlanMemory (gated by InternalVerifyEnabled) so the checker and the
//      simulator can never drift apart.
//
// The rule catalogue with paper-section references lives in DESIGN.md
// ("Static verification").

#ifndef T10_SRC_VERIFY_VERIFIER_H_
#define T10_SRC_VERIFY_VERIFIER_H_

#include <cstdint>

#include "src/core/compiler.h"
#include "src/core/device_program.h"
#include "src/core/memory_planner.h"
#include "src/core/plan.h"
#include "src/hardware/chip_spec.h"
#include "src/ir/graph.h"
#include "src/verify/diagnostics.h"

namespace t10::verify {

struct VerifyOptions {
  // Strict mode: warnings (padding waste, staging-buffer pressure, oversized
  // idle layouts) fail verification alongside errors.
  bool strict = false;
};

// Per-core scratchpad bytes the byte-level ProgramExecutor reserves for a
// lowered plan: one allocator-aligned window buffer per operand plus the
// bounded staging buffer (paper §5 pseudo-shift), and — when the executor
// runs `fault_tolerant` — one spare copy of every window. This mirrors the
// executor's allocation pattern exactly; its observed LocalMemory usage is
// asserted against this number so capacity checking cannot drift from the
// simulator.
std::int64_t ProgramFootprintBytes(const ExecutionPlan& plan, const ChipSpec& chip,
                                   bool fault_tolerant = false);

// True when the in-pipeline verification hooks run. Defaults to on in debug
// builds (!NDEBUG) and off otherwise; the T10_INTERNAL_VERIFY environment
// variable overrides in both directions ("1" enables, "0" disables).
bool InternalVerifyEnabled();

class Verifier {
 public:
  explicit Verifier(const ChipSpec& chip, VerifyOptions options = {});

  // Severity at which diagnostics fail verification under `options`.
  Severity fail_threshold() const {
    return options_.strict ? Severity::kWarning : Severity::kError;
  }

  // Graph-level checks: dangling operands, producer/consumer bookkeeping,
  // dtype and shape agreement across every edge.
  VerifyResult VerifyGraph(const Graph& graph) const;

  // Plan-level checks: core count, scratchpad capacity, rotation-pace
  // alignment, window tiling, ring arithmetic, output-rotation invariant.
  VerifyResult VerifyPlan(const ExecutionPlan& plan) const;

  // Program-level checks against the plan it was lowered from: allocation
  // agreement, ring conservation, slab alignment, per-step capacity,
  // step-count consistency, traffic accounting, epilogue shape.
  VerifyResult VerifyProgram(const DeviceProgram& program, const ExecutionPlan& plan) const;

  // Memory-plan checks: intervals with overlapping lifetimes occupy disjoint
  // scratchpad ranges, and the recorded peak matches the interval set.
  VerifyResult VerifyMemoryPlan(const MemoryPlan& plan) const;

  // Model-level checks: plan/graph binding, PlanMetrics agreement, setup-byte
  // accounting, Algorithm 1's memory-monotone trajectory, peak-memory fit;
  // recursively verifies every operator's plans and lowered program.
  VerifyResult VerifyModel(const CompiledModel& model, const Graph& graph) const;

  // Everything `t10c --verify` runs: graph + model + a fresh memory plan.
  VerifyResult VerifyAll(const CompiledModel& model, const Graph& graph) const;

  const ChipSpec& chip() const { return chip_; }

 private:
  ChipSpec chip_;
  VerifyOptions options_;
};

}  // namespace t10::verify

#endif  // T10_SRC_VERIFY_VERIFIER_H_
