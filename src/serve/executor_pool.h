// Executor pool and plan-epoch snapshots for the serving runtime.
//
// A PlanSet is one immutable generation ("epoch") of the served model: the
// compiled model for the current topology health (epoch 0 on the pristine
// chip, later epochs via ReplanDegraded on the surviving sub-chip), the
// logical->physical core map, one slot per supported operator running that
// operator's compiled active plan (the program the verifier gate checked and
// pacing bills; faults bite only where it shifts), and a lazily-populated,
// bounded cache of fault-free reference outputs used to check every OK
// response for bit identity. Epochs are handed to workers as shared_ptr snapshots, so a
// failover can swap the server's current epoch while stragglers finish on
// the old one.
//
// The ExecutorPool owns one simulated Machine + deterministic FaultInjector
// per worker thread (Machine and the injector's transient schedule are
// single-owner; only the persistent-health side is thread-safe). Chaos kills
// fan out to every worker's injector, emulating one physical chip whose
// fabric all workers share.

#ifndef T10_SRC_SERVE_EXECUTOR_POOL_H_
#define T10_SRC_SERVE_EXECUTOR_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/program_executor.h"
#include "src/fault/fault_plan.h"
#include "src/ir/graph.h"
#include "src/obs/journal.h"
#include "src/obs/span.h"
#include "src/serve/request.h"
#include "src/sim/machine.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace t10 {
namespace serve {

// One servable operator of the model. Slot indices are stable across epochs:
// they are assigned by walking the model's ops in order and keeping exactly
// the ones the byte-level executor supports.
struct OpSlot {
  int op_index = -1;
  std::string op_name;
  const ExecutionPlan* plan = nullptr;  // The compiled op's active_plan.
  double simulated_seconds = 0.0;       // Cost-model time one request occupies
                                        // the simulated chip (pacing input).
};

// Deterministic jittered exponential backoff: base * 2^min(attempt,10),
// scaled into [0.5x, 1.0x) by a SplitMix64 hash of (key, attempt). Pure
// function of its arguments on every platform — the same seed yields the
// same retry schedule, so chaos campaigns stay reproducible — while
// different keys decorrelate, so retries against a recovering shard do not
// stampede in lockstep.
double RetryBackoffSeconds(double base_seconds, int attempt, std::uint64_t key);

// Deterministic request inputs for a slot's operator; shared by the serving
// execution path and the reference-output computation.
std::vector<HostTensor> SlotInputs(const Operator& op, std::uint64_t seed);

class PlanSet {
 public:
  // Fault-free output of one (slot, seed) request, computed once on a
  // pristine reference machine.
  struct Reference {
    std::vector<std::int64_t> shape;
    std::vector<float> data;
    std::uint64_t checksum = 0;
  };

  // Compiles the model for `health` over `chip` (ReplanDegraded when the
  // mask is non-empty; on a healthy chip a non-null `compiled`, the graph
  // already compiled for `chip` with `compile`, is adopted instead), builds
  // the slot table over the compiled active plans, and — when `verify` is
  // set — gates activation on the static verifier passing over the
  // resulting model. The graph must outlive the PlanSet. Errors:
  //   kResourceExhausted   model no longer fits the (surviving) memory, or a
  //                        slot's program does not fit a core once
  //                        `fault_tolerance` adds its spare windows
  //   kUnavailable         no core survives the mask
  //   kFailedPrecondition  no servable operator, or verification failed
  //                        (the degraded model is never activated)
  // `journal` (nullable) receives the failover.replan / failover.verify_gate
  // flight-recorder events for degraded rebuilds; `fault_tolerance` is what
  // the workers will run the slots with.
  static StatusOr<std::shared_ptr<PlanSet>> Build(
      const ChipSpec& chip, const Graph& graph, const TopologyHealth& health,
      const CompileOptions& compile, int epoch, bool verify,
      obs::EventJournal* journal = nullptr, const FaultToleranceOptions& fault_tolerance = {},
      const CompiledModel* compiled = nullptr);

  int epoch() const { return epoch_; }
  const TopologyHealth& health() const { return health_; }
  const std::vector<int>& core_map() const { return core_map_; }
  const ChipSpec& plan_chip() const { return plan_chip_; }
  const CompiledModel& model() const { return model_; }
  const Graph& graph() const { return graph_; }

  int num_op_slots() const { return static_cast<int>(slots_.size()); }
  const OpSlot& slot(int index) const { return slots_[static_cast<std::size_t>(index)]; }

  // Most references the cache holds. Whole-model requests each bring a
  // fresh seed, so an unbounded cache would grow for as long as the server
  // runs; past the cap the oldest entry is evicted (FIFO) and simply
  // recomputed, bit-identically, if its (slot, seed) comes back.
  static constexpr std::size_t kReferenceCacheCapacity = 64;

  // The fault-free bytes a request on (slot, seed) must reproduce. Runs the
  // slot's plan on the internal pristine machine unless the result is
  // cached; thread-safe, and the returned reference stays valid after its
  // cache entry is evicted. Errors are operational (reference execution
  // failed).
  StatusOr<std::shared_ptr<const Reference>> ReferenceFor(int slot_index, std::uint64_t seed);

  // Entries currently cached (at most kReferenceCacheCapacity).
  std::size_t reference_cache_size();

 private:
  PlanSet(const ChipSpec& chip, const Graph& graph);

  ChipSpec physical_chip_;
  ChipSpec plan_chip_;  // What the model was compiled for (surviving spec).
  const Graph& graph_;
  TopologyHealth health_;
  std::vector<int> core_map_;
  int epoch_ = 0;
  CompiledModel model_;
  std::vector<OpSlot> slots_;

  // Reference execution: a perfect machine (no injector) on the physical
  // chip, serialized by `reference_mu_`. Cached References are shared, so
  // eviction never invalidates one a caller still holds.
  using ReferenceKey = std::pair<int, std::uint64_t>;
  Mutex reference_mu_{"serve.planset.reference_mu"};
  Machine reference_machine_ T10_GUARDED_BY(reference_mu_);
  std::map<ReferenceKey, std::shared_ptr<const Reference>> reference_cache_
      T10_GUARDED_BY(reference_mu_);
  std::deque<ReferenceKey> reference_order_ T10_GUARDED_BY(reference_mu_);  // Oldest first.
};

// Terminal outcome of executing one request (including its retry budget).
struct ExecuteOutcome {
  Status status;  // OK, kDataLoss (budget exhausted), kUnavailable
                  // (persistent fault), kDeadlineExceeded (expired between
                  // attempts), kResourceExhausted (scratchpad).
  HostTensor output;
  int retries_used = 0;  // Whole-request re-executions performed.
  ProgramRunStats stats;  // From the last attempt.
};

class ExecutorPool {
 public:
  // One Machine + FaultInjector per worker, all on `chip` with the same
  // FaultSpec (worker i's injector is seeded spec.seed + i so transient
  // schedules decorrelate across workers; persistent faults are identical).
  ExecutorPool(const ChipSpec& chip, const fault::FaultSpec& faults,
               FaultToleranceOptions fault_tolerance, double retry_backoff_base_seconds,
               int num_workers);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Attaches the event journal retry/fault events land in (nullable; call
  // before serving starts).
  void SetJournal(obs::EventJournal* journal) { journal_ = journal; }

  // Runs `plans.slot(slot_index)` on worker `worker`'s machine with up to
  // `max_retries` whole-request re-executions on transient failures
  // (kDataLoss), sleeping an exponentially growing host-side backoff between
  // attempts. Persistent failures (kUnavailable) return immediately — they
  // are the health monitor's signal, not retryable. The deadline is checked
  // between attempts so a retry storm cannot run past it. `trace` (inactive
  // when tracing is off) scopes the per-attempt / backoff spans; the
  // executor's step-group spans land on lane "exec.w<worker>".
  ExecuteOutcome Execute(int worker, const PlanSet& plans, int slot_index, std::uint64_t seed,
                         int max_retries, bool has_deadline, Clock::time_point deadline,
                         const obs::TraceContext& trace = {});

  // Chaos hooks: persistently down a core / directed link on every worker's
  // injector, as if the shared fabric lost it mid-stream. Thread-safe.
  void KillCore(int core);
  void KillLink(int src_core, int dst_core);

  // Chip-scoped chaos: every core on every worker's injector goes down at
  // once — the whole chip is lost. Thread-safe.
  void KillChip(int num_cores);

  // Elastic recovery: frees every worker machine's simulated scratchpad and
  // channel staging state (Machine::ReleaseStorage). Only valid once no
  // worker will execute again — the chip is permanently lost and its server
  // has drained and joined its workers. Returns the bytes released.
  std::int64_t ReleaseMachines();

  // Health as seen through the workers' injectors (spec faults + chaos
  // kills). All injectors agree on persistent health; worker 0 answers.
  TopologyHealth ProbeHealth() const;

  // Transfers refused on downed cores/links, summed over workers — the raw
  // suspicion signal behind health probes.
  std::int64_t fault_blocked_transfers() const;
  std::int64_t fault_retries() const;

 private:
  struct Worker {
    // Injector is declared before the machine: the machine holds a pointer
    // to it for its whole lifetime.
    fault::FaultInjector injector;
    Machine machine;

    Worker(const ChipSpec& chip, fault::FaultSpec spec)
        : injector(std::move(spec)), machine(chip) {
      machine.AttachFaults(&injector);
    }
  };

  FaultToleranceOptions fault_tolerance_;
  double retry_backoff_base_seconds_;
  obs::EventJournal* journal_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace serve
}  // namespace t10

#endif  // T10_SRC_SERVE_EXECUTOR_POOL_H_
