// Fault campaign: compiles a model, then executes every supported operator
// byte-for-byte on the functional Machine twice — once on a perfect fabric
// and once under a deterministic FaultInjector with the fault-tolerant
// execution path (checksummed retries + checkpoint rollback) — and reports
// whether the protected run reproduced the fault-free bytes exactly.
//
// Persistent faults in the spec (core_down / link_down) additionally route
// the compile through degraded re-planning: the plan is searched over the
// surviving topology (ChipSpec::SurvivingSpec) and executed around the holes
// with the logical->physical core map.
//
// Declared under src/fault but compiled into t10_core (like src/verify):
// the campaign drives the compiler and executor, which sit above t10_fault
// in the library stack.

#ifndef T10_SRC_FAULT_CAMPAIGN_H_
#define T10_SRC_FAULT_CAMPAIGN_H_

#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/program_executor.h"
#include "src/fault/fault_plan.h"
#include "src/ir/graph.h"
#include "src/util/status.h"

namespace t10 {
namespace fault {

struct CampaignOptions {
  CampaignOptions() { fault_tolerance.enabled = true; }
  FaultToleranceOptions fault_tolerance;
  CompileOptions compile;
};

// One operator's fate in the campaign.
struct OpCampaignResult {
  std::string op_name;
  bool executed = false;
  std::string skip_reason;   // Non-empty when !executed.
  bool bit_identical = false;  // Faulted output == fault-free output, bytewise.
  Status status;             // Outcome of the protected run.
  ProgramRunStats stats;     // From the protected run.
};

struct CampaignResult {
  std::vector<OpCampaignResult> ops;
  int executed = 0;
  int skipped = 0;
  int identical = 0;
  // Degraded re-planning, when the spec has persistent faults.
  bool degraded = false;
  std::string surviving_chip;
  std::vector<int> core_map;
  // Injector totals and (bounded) human-readable fault schedule.
  std::int64_t fault_events = 0;
  std::int64_t faults_injected = 0;
  std::vector<std::string> schedule_log;
  // Machine-level recovery totals across the whole campaign.
  std::int64_t retries = 0;
  double fault_penalty_seconds = 0.0;

  bool AllIdentical() const { return executed > 0 && identical == executed; }
};

// Executor support envelope, shared by the campaign and the serving runtime
// (src/serve): why the byte-level ProgramExecutor cannot run `op`, or empty
// when it can (FP32 contraction/elementwise/reduce).
std::string OpSkipReason(const Operator& op);

// Picks the plan the fault campaign (t10c --faults) executes for an op, and
// bench_microkernels' rotating plan: the Pareto candidate with the most
// rotation steps, falling back to the compiled active plan when that rotates
// at least as much. The compiler's fastest plan is often pure-spatial —
// nothing would cross a link, and faults could never bite. A campaign
// heuristic only: the serving runtime runs the compiled active plans.
// Returns nullptr only when `search` has no candidate and `compiled_active`
// is null; the result points into `search` or at `compiled_active`.
const ExecutionPlan* PickExecutablePlan(const IntraOpResult& search,
                                        const ExecutionPlan* compiled_active);

// Runs the campaign. Errors are operational: compile failure on the surviving
// topology (kResourceExhausted / kUnavailable / kFailedPrecondition via
// ReplanDegraded) or a model with no executable operator (kFailedPrecondition).
// Per-op execution errors do NOT fail the campaign; they land in the op's
// `status` so a partially-survivable model still yields a report.
StatusOr<CampaignResult> RunFaultCampaign(const ChipSpec& chip, const Graph& graph,
                                          const FaultSpec& spec,
                                          const CampaignOptions& options = {});

}  // namespace fault
}  // namespace t10

#endif  // T10_SRC_FAULT_CAMPAIGN_H_
