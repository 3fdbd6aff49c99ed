#include "src/fault/campaign.h"

#include <cstring>

#include "src/core/host_tensor.h"
#include "src/sim/machine.h"

namespace t10 {
namespace fault {

// Executor support envelope (see ProgramExecutor): FP32 and the three
// byte-level kinds.
std::string OpSkipReason(const Operator& op) {
  if (op.kind() != OpKind::kContraction && op.kind() != OpKind::kElementwise &&
      op.kind() != OpKind::kReduceSum) {
    return std::string("kind ") + OpKindName(op.kind());
  }
  for (const TensorRef& input : op.inputs()) {
    if (input.dtype != DataType::kF32) {
      return "dtype " + DataTypeName(input.dtype);
    }
  }
  if (op.output().dtype != DataType::kF32) {
    return "dtype " + DataTypeName(op.output().dtype);
  }
  return "";
}

const ExecutionPlan* PickExecutablePlan(const IntraOpResult& search,
                                        const ExecutionPlan* compiled_active) {
  const ExecutionPlan* plan = compiled_active;
  for (const PlanCandidate& candidate : search.pareto) {
    if (plan == nullptr || candidate.plan.total_steps() > plan->total_steps()) {
      plan = &candidate.plan;
    }
  }
  return plan;
}

namespace {

std::vector<HostTensor> CampaignInputs(const Operator& op, std::uint64_t seed) {
  std::vector<HostTensor> inputs;
  for (std::size_t i = 0; i < op.inputs().size(); ++i) {
    inputs.push_back(
        RandomHostTensor(TensorShape(op.axes(), op.inputs()[i]), seed + 1000 * i));
  }
  return inputs;
}

}  // namespace

StatusOr<CampaignResult> RunFaultCampaign(const ChipSpec& chip, const Graph& graph,
                                          const FaultSpec& spec,
                                          const CampaignOptions& options) {
  CampaignResult result;

  // Compile: over the surviving topology when the spec downs cores or links,
  // over the full chip otherwise.
  ChipSpec masked = chip;
  masked.health.failed_cores = spec.failed_cores;
  masked.health.failed_links = spec.failed_links;
  CompiledModel model;
  std::vector<int> core_map;
  ChipSpec search_chip = chip;
  if (masked.health.degraded()) {
    DegradedPlan degraded;
    T10_ASSIGN_OR_RETURN(degraded, ReplanDegraded(masked, graph, options.compile));
    model = std::move(degraded.model);
    core_map = std::move(degraded.core_map);
    search_chip = degraded.surviving;
    result.degraded = true;
    result.surviving_chip = degraded.surviving.name;
    result.core_map = core_map;
  } else {
    Compiler compiler(chip, options.compile);
    model = compiler.Compile(graph);
    if (!model.fits) {
      return ResourceExhaustedError("model '" + graph.name() + "' does not fit " + chip.name);
    }
  }
  // For stressing the fault machinery the compiler's fastest plan is often
  // the worst choice: pure spatial plans never shift, so nothing crosses a
  // link and the campaign proves nothing. Prefer the supported Pareto plan
  // with the most rotation steps for each op.
  Compiler planner(search_chip, options.compile);

  // Two machines on the *physical* chip: a perfect one for the reference
  // bytes and a faulted one for the protected run. Sharing one injector
  // across all ops makes the whole campaign one deterministic event stream.
  Machine reference_machine(chip);
  Machine faulted_machine(chip);
  FaultInjector injector(spec);
  faulted_machine.AttachFaults(&injector);

  FaultToleranceOptions no_ft;
  for (const CompiledOp& compiled : model.ops) {
    const Operator& op = graph.op(compiled.op_index);
    OpCampaignResult& op_result = result.ops.emplace_back();
    op_result.op_name = op.name();
    op_result.skip_reason = OpSkipReason(op);
    if (!op_result.skip_reason.empty()) {
      ++result.skipped;
      continue;
    }
    IntraOpResult search = planner.SearchOp(op);
    const ExecutionPlan* plan = PickExecutablePlan(search, &compiled.active_plan);
    const std::vector<HostTensor> inputs =
        CampaignInputs(op, spec.seed + 7919 * static_cast<std::uint64_t>(compiled.op_index));

    StatusOr<HostTensor> want =
        ProgramExecutor(reference_machine, *plan, no_ft, core_map).Run(inputs);
    if (!want.ok()) {
      // A fault-free failure is a capacity problem, not a fault outcome.
      op_result.skip_reason = "reference run: " + want.status().ToString();
      ++result.skipped;
      continue;
    }
    op_result.executed = true;
    ++result.executed;

    StatusOr<HostTensor> got =
        ProgramExecutor(faulted_machine, *plan, options.fault_tolerance, core_map)
            .Run(inputs, &op_result.stats);
    op_result.status = got.ok() ? Status::Ok() : got.status();
    if (got.ok()) {
      op_result.bit_identical =
          want->shape == got->shape && want->data.size() == got->data.size() &&
          std::memcmp(want->data.data(), got->data.data(), want->data.size() * sizeof(float)) ==
              0;
      if (op_result.bit_identical) {
        ++result.identical;
      }
    }
  }
  if (result.executed == 0) {
    return FailedPreconditionError("model '" + graph.name() +
                                   "' has no operator the byte-level executor supports");
  }

  result.fault_events = injector.events();
  result.faults_injected = injector.injected();
  result.schedule_log = injector.schedule_log();
  result.retries = faulted_machine.fault_retries();
  result.fault_penalty_seconds = faulted_machine.fault_penalty_seconds();
  return result;
}

}  // namespace fault
}  // namespace t10
