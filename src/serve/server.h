// Resilient serving runtime over the simulated chip (DESIGN.md "Serving
// runtime").
//
// A Server owns the full serving stack for one model: a bounded
// deadline-ordered admission queue (Scheduler), a pool of worker threads
// each driving the byte-level ProgramExecutor on its own simulated
// Machine + deterministic FaultInjector (ExecutorPool), a background
// HealthMonitor, and plan-epoch snapshots (PlanSet) that can be hot-swapped
// while the server runs.
//
// State machine:
//
//   kIdle -> Start() -> kServing <-> kReplanning      (online failover)
//                          |              |
//                          v              v (replan/verify failed)
//                      kDraining       kFailed
//                          |              |
//                          +--> Shutdown() --> kStopped
//
// Failure semantics, in one place:
//   - Admission: queue full -> kResourceExhausted (shed, synchronous);
//     replanning -> kUnavailable (circuit breaker, fail fast); draining /
//     stopped -> kFailedPrecondition; kFailed -> kUnavailable.
//   - Every admitted request gets exactly one Response, OK or not: deadline
//     expiry anywhere in the pipeline -> kDeadlineExceeded; transient-fault
//     retry budget exhausted -> the underlying kDataLoss; persistent fault
//     after one failover re-queue -> kUnavailable.
//   - Persistent core/link death (health probe, or a worker tripping over
//     kUnavailable) triggers one online failover: workers pause (circuit
//     opens), in-flight work drains, the model is recompiled for the
//     surviving topology via ReplanDegraded on the monitor thread with the
//     warm plan cache, statically verified, then swapped in as the next
//     epoch; the in-flight requests that hit the dead core were re-queued
//     and complete under the new plan. Failures already replanned around
//     never re-trigger (serve.failover.count counts topology regressions,
//     not probes).
//   - OK responses are checked bit-for-bit against a fault-free reference
//     run of the same (op, seed) on a pristine machine (Response::
//     bit_identical); the reliability layer letting corruption through is
//     an integrity bug the caller can detect.
//
// Thread-safety: the public API is fully thread-safe; Submit may be called
// from many producer threads.

#ifndef T10_SRC_SERVE_SERVER_H_
#define T10_SRC_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compiler.h"
#include "src/fault/fault_plan.h"
#include "src/hardware/chip_spec.h"
#include "src/ir/graph.h"
#include "src/obs/journal.h"
#include "src/obs/plan_timings.h"
#include "src/obs/span.h"
#include "src/serve/executor_pool.h"
#include "src/serve/health_monitor.h"
#include "src/serve/request.h"
#include "src/serve/scheduler.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace t10 {
namespace serve {

enum class ServerState {
  kIdle,        // Constructed, not started.
  kServing,     // Admitting and executing.
  kReplanning,  // Failover in progress: circuit open, workers paused.
  kDraining,    // Shutdown requested: no admission, queue draining.
  kStopped,     // Terminal: workers joined.
  kFailed,      // Terminal-ish: replan failed; queued requests are answered
                // with the failure, admission is rejected.
};

const char* ServerStateName(ServerState state);

struct ServerOptions {
  ServerOptions() { fault_tolerance.enabled = true; }

  int num_workers = 2;
  int queue_capacity = 64;
  // Fault environment shared by all workers (transient rates, persistent
  // failures present from the start, seed).
  fault::FaultSpec faults;
  CompileOptions compile;
  FaultToleranceOptions fault_tolerance;
  // Health probe cadence; suspicion (a worker hitting kUnavailable) probes
  // immediately regardless.
  double health_poll_seconds = 0.005;
  // Host-side exponential backoff base between whole-request retries.
  double retry_backoff_base_seconds = 1e-4;
  // Gate every epoch (including the degraded ones) on the static verifier.
  bool verify_before_activate = true;
  // First request id the scheduler assigns. Sharded deployments give each
  // shard a disjoint base (shard i gets (i+1) * 1e9) so request ids — and
  // the trace ids derived from them — are globally unique.
  std::int64_t request_id_base = 0;
  // Simulated-time pacing: when > 0, a successful execution occupies its
  // worker for at least pace_time_scale * the slot's cost-model seconds
  // (sleeping out the remainder). This makes throughput occupancy-bound —
  // proportional to simulated chip capacity, not host CPU — so shard
  // scaling and the cost of serving a slower degraded epoch are observable
  // on any host. 0 (default) disables pacing.
  double pace_time_scale = 0.0;
  // When set, every Response is handed to this callback (invoked on the
  // delivering worker thread, outside all server locks) instead of being
  // buffered for TakeResponses(). The router uses this to observe shard
  // completions without polling.
  std::function<void(Response)> on_response;

  // Observability (all nullable/optional; the serving hot path allocates
  // nothing for any of them when unset). The tracer roots one trace per
  // request (admission -> queue wait -> attempts -> audit -> response, with
  // flow links across failover requeues); the journal is the flight
  // recorder's event ring; plan timings collect per-plan-signature observed
  // execution seconds (the cost-model refit feed). When
  // `flight_recorder_path` is non-empty AND a journal is attached, the
  // server dumps a post-mortem JSON there on every failover, on parking in
  // kFailed, and on any non-OK terminal response.
  obs::Tracer* tracer = nullptr;
  obs::EventJournal* journal = nullptr;
  obs::PlanTimings* plan_timings = nullptr;
  std::string flight_recorder_path;
};

// Aggregate accounting, for reports and integrity checks.
struct ServerStats {
  std::int64_t submitted = 0;   // Accepted by admission.
  std::int64_t responses = 0;   // Delivered (one per accepted request).
  std::int64_t ok = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t failed = 0;      // Non-OK, non-deadline responses.
  std::int64_t requeued = 0;    // Failover re-queues.
  int failovers = 0;
  int plan_epoch = 0;
};

class Server {
 public:
  // The graph must outlive the server (compiled models borrow its
  // operators). `chip.health` may already mark failures; they are merged
  // with the FaultSpec's persistent faults into epoch 0's mask. A healthy
  // epoch 0 adopts `compiled` (`graph` compiled for `chip`; borrowed until
  // Start()) when set, instead of compiling.
  Server(const ChipSpec& chip, const Graph& graph, ServerOptions options = {},
         const CompiledModel* compiled = nullptr);
  ~Server();  // Implies Shutdown().

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Compiles epoch 0 and starts workers + health monitor. Errors mirror
  // PlanSet::Build (kResourceExhausted / kUnavailable / kFailedPrecondition).
  Status Start();

  // Admits one request (see the failure-semantics table above). On success
  // returns the request id its Response will carry.
  StatusOr<std::int64_t> Submit(const Request& request);

  // Chaos hooks: persistently kill a core / directed link under the running
  // server, as the simulated fabric would mid-stream.
  void KillCore(int core);
  void KillLink(int src_core, int dst_core);
  // Chip-scoped chaos: every core dies at once. The next replan finds no
  // surviving core and parks the server in kFailed — the router's signal to
  // fail the whole shard over.
  void KillChip();

  // Blocks until every accepted request has its response and no failover is
  // in progress.
  void WaitIdle();

  // Drains and returns the responses delivered so far (ownership moves to
  // the caller; the internal buffer empties).
  std::vector<Response> TakeResponses();

  // Graceful shutdown: stops admission, drains the queue (every queued
  // request still gets its response — an error one if the server is in
  // kFailed), joins workers and the monitor. Idempotent. Returns the replan
  // failure if the server died in kFailed, OK otherwise.
  Status Shutdown();

  ServerState state() const;
  // Why the server parked in kFailed (OK in any other state).
  Status failed_status() const;
  // Operators this server can serve; Request::op_slot must be in
  // [0, num_op_slots). Stable across failovers.
  int num_op_slots() const;
  std::string op_slot_name(int slot) const;
  int plan_epoch() const;
  ServerStats stats() const;

  // Load introspection for routing decisions: requests admitted but not yet
  // answered, and the subset still sitting in the queue.
  std::int64_t outstanding() const;
  int queue_depth() const;

  // Brownout hooks (router only). PeekLatestVictimDeadline reports the
  // deadline of the queued request that would be shed next (nullopt: empty
  // queue, or a no-deadline request — always sheddable). TryShedLatestDeadline
  // evicts it and synchronously delivers its kResourceExhausted response
  // (the one-response invariant holds; the response routes through
  // on_response like any other). Returns false when the queue was empty.
  std::optional<Clock::time_point> PeekLatestVictimDeadline() const;
  bool TryShedLatestDeadline();

 private:
  void WorkerLoop(int worker);
  // Executes one popped request end to end (may re-queue across a failover
  // instead of responding).
  void Process(int worker, AdmittedRequest admitted, const std::shared_ptr<PlanSet>& plans);
  void Deliver(Response response);
  // Monitor-thread callback: drain, replan, verify, swap (or fail).
  void OnDegraded(const TopologyHealth& merged);
  // Writes the post-mortem dump (journal events + open spans) if a flight
  // recorder path is configured; best-effort, failures are logged only.
  void DumpFlightRecorder(const std::string& reason);

  const ChipSpec chip_;
  const Graph& graph_;
  const ServerOptions options_;
  const CompiledModel* const compiled_;  // Epoch 0's model when adopted; null: compile.

  Scheduler scheduler_;
  ExecutorPool pool_;
  HealthMonitor monitor_;

  mutable Mutex mu_{"serve.server.mu"};
  CondVar state_cv_;  // State changes; workers pause on it.
  CondVar drain_cv_;  // in_flight_ -> 0 (replan drain).
  CondVar idle_cv_;   // outstanding_ -> 0 (WaitIdle).
  ServerState state_ T10_GUARDED_BY(mu_) = ServerState::kIdle;
  Status failed_status_ T10_GUARDED_BY(mu_);  // Set when state_ == kFailed.
  std::shared_ptr<PlanSet> plans_ T10_GUARDED_BY(mu_);  // Current epoch.
  std::vector<Response> responses_ T10_GUARDED_BY(mu_);
  std::int64_t outstanding_ T10_GUARDED_BY(mu_) = 0;  // No response yet.
  int in_flight_ T10_GUARDED_BY(mu_) = 0;  // Currently inside Process().
  ServerStats stats_ T10_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace t10

#endif  // T10_SRC_SERVE_SERVER_H_
