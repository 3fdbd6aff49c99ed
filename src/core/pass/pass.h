// The compilation pass pipeline (paper §4, Fig 4, restructured).
//
// Compilation is a sequence of typed passes over one CompilationContext:
//
//   FitCostModel -> IntraOpSearch -> InterOpReconcile -> MemoryPlan -> Finalize
//
// Each pass reads the artifacts earlier passes left in the context and writes
// its own; it never calls into another pass. Control flow is explicit in the
// returned PassResult: continue to the next pass, or stop the pipeline (the
// model does not fit). The pipeline runs each pass at most once; the one
// loop in compilation, fitting Algorithm 1's schedule to the liveness plan
// (§4.3.2/§4.4), lives inside MemoryPlan.
//
// The PassManager owns the cross-cutting concerns the monolithic compiler
// used to hard-code: every pass run is timed (compiler.pass.<name>.seconds)
// and counted (compiler.pass.<name>.runs), and when internal verification is
// enabled each pass's output artifact is verified via its Verify() hook
// before the next pass runs.

#ifndef T10_SRC_CORE_PASS_PASS_H_
#define T10_SRC_CORE_PASS_PASS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/pass/compilation_context.h"
#include "src/verify/diagnostics.h"

namespace t10 {

namespace pass_names {
inline constexpr char kGraphPartition[] = "graph_partition";
inline constexpr char kFitCostModel[] = "fit_cost_model";
inline constexpr char kIntraOpSearch[] = "intra_op_search";
inline constexpr char kInterOpReconcile[] = "inter_op_reconcile";
inline constexpr char kMemoryPlan[] = "memory_plan";
inline constexpr char kFinalize[] = "finalize";
}  // namespace pass_names

struct PassResult {
  enum class Action {
    kContinue,  // Proceed to the next pass.
    kStop,      // End the pipeline; the context holds the final model.
  };

  Action action = Action::kContinue;

  static PassResult Continue() { return {}; }
  static PassResult Stop() { return {Action::kStop}; }
};

class Pass {
 public:
  virtual ~Pass() = default;

  // Stable name (a pass_names constant); used for metrics, --print-passes
  // and CompileFrom start passes.
  virtual const char* name() const = 0;

  virtual PassResult Run(CompilationContext& ctx) = 0;

  // Verifies this pass's output artifact. The PassManager calls it after a
  // successful Run when verify::InternalVerifyEnabled() and CHECK-fails on
  // any error diagnostic. The default verifies nothing.
  virtual verify::VerifyResult Verify(const CompilationContext& ctx) const;
};

class PassManager {
 public:
  void AddPass(std::unique_ptr<Pass> pass);

  std::vector<std::string> PassNames() const;

  // Runs the pipeline over `ctx`, starting at `start_pass` (empty = first).
  // CHECK-fails on an unknown start pass.
  void Run(CompilationContext& ctx, const std::string& start_pass = "") const;

 private:
  int IndexOf(const std::string& name) const;

  std::vector<std::unique_ptr<Pass>> passes_;
};

// The standard compilation pipeline in order (the five passes above).
PassManager BuildCompilerPipeline();

}  // namespace t10

#endif  // T10_SRC_CORE_PASS_PASS_H_
