#include "src/serve/executor_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/fault/campaign.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/verify/verifier.h"

namespace t10 {
namespace serve {

namespace {

obs::Counter& RetryCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.retry.count");
  return counter;
}

}  // namespace

double RetryBackoffSeconds(double base_seconds, int attempt, std::uint64_t key) {
  const double exponential =
      base_seconds * static_cast<double>(1 << std::min(attempt, 10));
  // SplitMix64 finalizer over (key, attempt): portable bit-exact jitter, no
  // std:: distributions (their output is implementation-defined).
  std::uint64_t z =
      key + 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(attempt) + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double unit = static_cast<double>(z >> 11) * 0x1.0p-53;  // [0, 1).
  return exponential * (0.5 + 0.5 * unit);
}

std::vector<HostTensor> SlotInputs(const Operator& op, std::uint64_t seed) {
  // Same generator the fault campaign uses: requests are (op, seed) pairs and
  // must reproduce byte-identically for the reference comparison.
  std::vector<HostTensor> inputs;
  for (std::size_t i = 0; i < op.inputs().size(); ++i) {
    inputs.push_back(
        RandomHostTensor(TensorShape(op.axes(), op.inputs()[i]), seed + 1000 * i));
  }
  return inputs;
}

PlanSet::PlanSet(const ChipSpec& chip, const Graph& graph)
    : physical_chip_(chip), plan_chip_(chip), graph_(graph), reference_machine_(chip) {}

StatusOr<std::shared_ptr<PlanSet>> PlanSet::Build(const ChipSpec& chip, const Graph& graph,
                                                  const TopologyHealth& health,
                                                  const CompileOptions& compile, int epoch,
                                                  bool verify, obs::EventJournal* journal,
                                                  const FaultToleranceOptions& fault_tolerance,
                                                  const CompiledModel* compiled) {
  std::shared_ptr<PlanSet> set(new PlanSet(chip, graph));
  set->health_ = health;
  set->epoch_ = epoch;

  if (health.degraded()) {
    obs::Log(journal, obs::Severity::kInfo, "serve", "failover.replan", /*request_id=*/-1,
             epoch,
             std::to_string(health.failed_cores.size()) + " failed core(s), " +
                 std::to_string(health.failed_links.size()) + " failed link(s)");
    ChipSpec masked = chip;
    masked.health = health;
    DegradedPlan degraded;
    T10_ASSIGN_OR_RETURN(degraded, ReplanDegraded(masked, graph, compile));
    set->model_ = std::move(degraded.model);
    set->core_map_ = std::move(degraded.core_map);
    set->plan_chip_ = std::move(degraded.surviving);
  } else {
    set->model_ = compiled != nullptr ? *compiled : Compiler(chip, compile).Compile(graph);
    if (!set->model_.fits) {
      return ResourceExhaustedError("model '" + graph.name() + "' does not fit " + chip.name);
    }
  }

  // Slot table: every supported operator serves its compiled active plan.
  // The compiler budgets each core for the plan alone; fault tolerance adds
  // one spare window per operand, so a plan that fits may still be
  // unrunnable — refuse it here instead of failing every request.
  const std::int64_t core_bytes = set->plan_chip_.core_memory_bytes;
  for (const CompiledOp& compiled : set->model_.ops) {
    const Operator& op = graph.op(compiled.op_index);
    if (!fault::OpSkipReason(op).empty()) {
      continue;
    }
    const std::int64_t footprint = verify::ProgramFootprintBytes(
        compiled.active_plan, set->plan_chip_, fault_tolerance.enabled);
    if (footprint > core_bytes) {
      return ResourceExhaustedError(
          "op '" + op.name() + "' needs " + std::to_string(footprint) + "B per core" +
          (fault_tolerance.enabled ? " with fault-tolerance spares" : "") + " but " +
          set->plan_chip_.name + " cores hold " + std::to_string(core_bytes) + "B");
    }
    set->slots_.push_back(OpSlot{compiled.op_index, op.name(), &compiled.active_plan,
                                 compiled.measured.total_seconds()});
  }
  if (set->slots_.empty()) {
    return FailedPreconditionError("model '" + graph.name() +
                                   "' has no operator the byte-level executor supports");
  }

  if (verify) {
    verify::Verifier verifier(set->plan_chip_);
    verify::VerifyResult result = verifier.VerifyAll(set->model_, graph);
    if (!result.ok()) {
      obs::Log(journal, obs::Severity::kError, "serve", "failover.verify_gate",
               /*request_id=*/-1, epoch, "verification FAILED; epoch not activated");
      return FailedPreconditionError("epoch " + std::to_string(epoch) +
                                     " model failed verification; not activating:\n" +
                                     result.Listing());
    }
    obs::Log(journal, obs::Severity::kInfo, "serve", "failover.verify_gate",
             /*request_id=*/-1, epoch, "verification passed");
  }
  return set;
}

StatusOr<std::shared_ptr<const PlanSet::Reference>> PlanSet::ReferenceFor(int slot_index,
                                                                         std::uint64_t seed) {
  MutexLock lock(reference_mu_);
  const ReferenceKey key(slot_index, seed);
  auto it = reference_cache_.find(key);
  if (it != reference_cache_.end()) {
    return it->second;
  }
  const OpSlot& s = slot(slot_index);
  const Operator& op = graph_.op(s.op_index);
  const std::vector<HostTensor> inputs = SlotInputs(op, seed);
  HostTensor out;
  T10_ASSIGN_OR_RETURN(
      out, ProgramExecutor(reference_machine_, *s.plan, FaultToleranceOptions{}, core_map_)
               .Run(inputs));
  auto ref = std::make_shared<Reference>();
  ref->shape = out.shape;
  ref->checksum = fault::Checksum(reinterpret_cast<const std::byte*>(out.data.data()),
                                  static_cast<std::int64_t>(out.data.size() * sizeof(float)));
  ref->data = std::move(out.data);
  if (reference_order_.size() == kReferenceCacheCapacity) {
    reference_cache_.erase(reference_order_.front());
    reference_order_.pop_front();
  }
  const bool fresh = reference_cache_.emplace(key, ref).second;
  // NOLINTNEXTLINE(lint.serve.check): cache-miss path just verified the key is absent under the lock.
  T10_CHECK(fresh);
  reference_order_.push_back(key);
  return std::shared_ptr<const Reference>(std::move(ref));
}

std::size_t PlanSet::reference_cache_size() {
  MutexLock lock(reference_mu_);
  return reference_cache_.size();
}

ExecutorPool::ExecutorPool(const ChipSpec& chip, const fault::FaultSpec& faults,
                           FaultToleranceOptions fault_tolerance,
                           double retry_backoff_base_seconds, int num_workers)
    : fault_tolerance_(fault_tolerance),
      retry_backoff_base_seconds_(retry_backoff_base_seconds) {
  // NOLINTNEXTLINE(lint.serve.check): constructor precondition, before any request exists.
  T10_CHECK_GE(num_workers, 1) << "executor pool size";
  workers_.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    fault::FaultSpec spec = faults;
    spec.seed = faults.seed + static_cast<std::uint64_t>(i);
    workers_.push_back(std::make_unique<Worker>(chip, std::move(spec)));
  }
}

ExecuteOutcome ExecutorPool::Execute(int worker, const PlanSet& plans, int slot_index,
                                     std::uint64_t seed, int max_retries, bool has_deadline,
                                     Clock::time_point deadline,
                                     const obs::TraceContext& trace) {
  Worker& w = *workers_[static_cast<std::size_t>(worker)];
  const OpSlot& s = plans.slot(slot_index);
  const std::vector<HostTensor> inputs = SlotInputs(plans.graph().op(s.op_index), seed);
  const std::int64_t request_id =
      trace.active() ? static_cast<std::int64_t>(trace.trace_id) : -1;

  ExecuteOutcome outcome;
  for (int attempt = 0;; ++attempt) {
    if (has_deadline && Clock::now() >= deadline) {
      outcome.status = DeadlineExceededError("deadline expired after " +
                                             std::to_string(attempt) + " attempt(s)");
      return outcome;
    }
    obs::Span attempt_span = obs::StartSpan(trace, "attempt");
    if (attempt_span.active()) {
      attempt_span.AddAttr("attempt", std::to_string(attempt));
      attempt_span.AddAttr("worker", std::to_string(worker));
      attempt_span.AddAttr("plan_epoch", std::to_string(plans.epoch()));
    }
    ProgramExecutor executor(w.machine, *s.plan, fault_tolerance_, plans.core_map());
    if (attempt_span.active() || journal_ != nullptr) {
      // Executor step groups are children of the attempt but live on the
      // worker's own lane, so per-worker occupancy is visible.
      executor.SetTrace(
          attempt_span.context().WithTrack("exec.w" + std::to_string(worker)), journal_);
    }
    StatusOr<HostTensor> got = executor.Run(inputs, &outcome.stats);
    if (got.ok()) {
      outcome.status = Status::Ok();
      outcome.output = *std::move(got);
      return outcome;
    }
    if (attempt_span.active()) {
      attempt_span.AddAttr("status", got.status().ToString());
    }
    attempt_span.End();
    outcome.status = got.status();
    // Only the fault layer's "transient damage survived all low-level
    // retries" outcome is worth re-executing; persistent faults and capacity
    // errors will not get better.
    if (got.status().code() != StatusCode::kDataLoss || attempt >= max_retries) {
      return outcome;
    }
    RetryCounter().Increment();
    obs::Log(journal_, obs::Severity::kWarn, "exec", "exec.retry", request_id, plans.epoch(),
             "attempt " + std::to_string(attempt) + " lost data; re-executing");
    ++outcome.retries_used;
    // Jitter key: the request's own (seed, slot) identity — deterministic
    // across runs and independent of whether tracing assigned a request id.
    const std::uint64_t jitter_key =
        seed ^ (static_cast<std::uint64_t>(slot_index) << 32);
    const double backoff =
        RetryBackoffSeconds(retry_backoff_base_seconds_, attempt, jitter_key);
    if (backoff > 0.0) {
      obs::Span backoff_span = obs::StartSpan(trace, "backoff");
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }
}

void ExecutorPool::KillCore(int core) {
  for (auto& worker : workers_) {
    worker->injector.KillCore(core);
  }
}

void ExecutorPool::KillLink(int src_core, int dst_core) {
  for (auto& worker : workers_) {
    worker->injector.KillLink(src_core, dst_core);
  }
}

void ExecutorPool::KillChip(int num_cores) {
  for (auto& worker : workers_) {
    worker->injector.KillChip(num_cores);
  }
}

std::int64_t ExecutorPool::ReleaseMachines() {
  std::int64_t released = 0;
  for (auto& worker : workers_) {
    released += worker->machine.ReleaseStorage();
  }
  return released;
}

TopologyHealth ExecutorPool::ProbeHealth() const {
  return workers_.front()->machine.ProbeHealth();
}

std::int64_t ExecutorPool::fault_blocked_transfers() const {
  std::int64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->machine.fault_blocked_transfers();
  }
  return total;
}

std::int64_t ExecutorPool::fault_retries() const {
  std::int64_t total = 0;
  for (const auto& worker : workers_) {
    total += worker->machine.fault_retries();
  }
  return total;
}

}  // namespace serve
}  // namespace t10
