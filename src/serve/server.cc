#include "src/serve/server.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/core/pass/plan_cache.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace t10 {
namespace serve {

namespace {

obs::Counter& FailoverCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.failover.count");
  return counter;
}

obs::Counter& FailoverFailedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.failover.failed");
  return counter;
}

obs::Counter& BreakerCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.breaker.rejected");
  return counter;
}

obs::Counter& RequeueCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.requeued.count");
  return counter;
}

obs::Counter& ResponseCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.responses.count");
  return counter;
}

obs::Counter& DeadlineCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("serve.deadline_exceeded.count");
  return counter;
}

obs::Histogram& LatencyHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("serve.latency.seconds");
  return histogram;
}

obs::Histogram& ReplanHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("serve.replan.seconds");
  return histogram;
}

obs::Histogram& QueueWaitHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("serve.queue_wait.seconds");
  return histogram;
}

obs::Histogram& ExecuteHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram("serve.execute.seconds");
  return histogram;
}

obs::Gauge& EpochGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge("serve.plan.epoch");
  return gauge;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// How many times one request may be re-queued across failovers before it is
// answered kUnavailable. >1 absorbs the race where a re-queued request is
// re-popped before the health monitor has opened the circuit.
constexpr int kMaxRequeues = 3;

// Flow-arrow ids linking a request's pre-requeue span to its next queue.wait:
// unique per (request, requeue round) so repeated failovers keep their
// arrows distinct.
std::uint64_t RequeueFlowId(std::int64_t id, int round) {
  return static_cast<std::uint64_t>(id) * 16 + static_cast<std::uint64_t>(round);
}

// The time between admission (or the last requeue) and this pop is queue
// wait; it is only known when the request is popped, so its span starts in
// the past. A requeued request receives the flow arrow its pre-failover
// execution emitted.
void EndQueueWait(const AdmittedRequest& admitted) {
  obs::Span wait_span = obs::StartSpanAt(admitted.trace, "queue.wait", admitted.admitted_at,
                                         &QueueWaitHistogram());
  if (wait_span.active()) {
    wait_span.AddAttr("requeues", std::to_string(admitted.requeues));
    if (admitted.requeues > 0) {
      wait_span.SetFlowIn(RequeueFlowId(admitted.id, admitted.requeues));
    }
  }
}

}  // namespace

const char* ServerStateName(ServerState state) {
  switch (state) {
    case ServerState::kIdle:
      return "idle";
    case ServerState::kServing:
      return "serving";
    case ServerState::kReplanning:
      return "replanning";
    case ServerState::kDraining:
      return "draining";
    case ServerState::kStopped:
      return "stopped";
    case ServerState::kFailed:
      return "failed";
  }
  return "unknown";
}

Server::Server(const ChipSpec& chip, const Graph& graph, ServerOptions options,
               const CompiledModel* compiled)
    : chip_(chip),
      graph_(graph),
      options_(std::move(options)),
      compiled_(compiled),
      scheduler_(options_.queue_capacity, options_.request_id_base),
      pool_(chip_, options_.faults, options_.fault_tolerance,
            options_.retry_backoff_base_seconds, options_.num_workers),
      monitor_(options_.health_poll_seconds, [this] { return pool_.ProbeHealth(); },
               [this](const TopologyHealth& merged) { OnDegraded(merged); }) {
  scheduler_.SetObservability(options_.tracer, options_.journal);
  pool_.SetJournal(options_.journal);
  monitor_.SetJournal(options_.journal);
}

Server::~Server() {
  // Destruction is a last-resort stop: the only possible error is "already
  // stopped", which is exactly what the destructor wants.
  const Status ignored = Shutdown();
  (void)ignored;
}

Status Server::Start() {
  {
    MutexLock lock(mu_);
    if (state_ != ServerState::kIdle) {
      return FailedPreconditionError("server already started (state " +
                                     std::string(ServerStateName(state_)) + ")");
    }
  }
  // Epoch 0's mask: whatever the chip spec already marks down plus the fault
  // environment's persistent failures — the server starts degraded rather
  // than discovering known-dead cores at request time.
  TopologyHealth initial = chip_.health;
  TopologyHealth spec_faults;
  spec_faults.failed_cores = options_.faults.failed_cores;
  spec_faults.failed_links = options_.faults.failed_links;
  initial = HealthMonitor::Merge(initial, spec_faults);

  std::shared_ptr<PlanSet> plans;
  T10_ASSIGN_OR_RETURN(plans,
                       PlanSet::Build(chip_, graph_, initial, options_.compile,
                                      /*epoch=*/0, options_.verify_before_activate,
                                      options_.journal, options_.fault_tolerance, compiled_));
  obs::Log(options_.journal, obs::Severity::kInfo, "serve", "server.start",
           /*request_id=*/-1, /*plan_epoch=*/0);
  {
    MutexLock lock(mu_);
    plans_ = std::move(plans);
    state_ = ServerState::kServing;
    stats_.plan_epoch = 0;
  }
  EpochGauge().Set(0.0);
  monitor_.SetAppliedHealth(std::move(initial));
  monitor_.Start();
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&Server::WorkerLoop, this, i);
  }
  return Status::Ok();
}

StatusOr<std::int64_t> Server::Submit(const Request& request) {
  {
    MutexLock lock(mu_);
    switch (state_) {
      case ServerState::kIdle:
        return FailedPreconditionError("server not started");
      case ServerState::kDraining:
      case ServerState::kStopped:
        return FailedPreconditionError("server is shutting down");
      case ServerState::kFailed:
        return UnavailableError("server failed: " + failed_status_.ToString());
      case ServerState::kReplanning:
        // Circuit breaker: fail fast instead of queueing behind a replan of
        // unknown duration.
        BreakerCounter().Increment();
        return UnavailableError("failover in progress; circuit open");
      case ServerState::kServing:
        break;
    }
    if (request.op_slot < 0 || request.op_slot >= plans_->num_op_slots()) {
      return InvalidArgumentError("op_slot " + std::to_string(request.op_slot) +
                                  " out of range [0, " +
                                  std::to_string(plans_->num_op_slots()) + ")");
    }
    ++outstanding_;
    ++stats_.submitted;
  }
  StatusOr<std::int64_t> id = scheduler_.Submit(request);
  if (!id.ok()) {
    MutexLock lock(mu_);
    --outstanding_;
    --stats_.submitted;
    if (outstanding_ == 0) {
      idle_cv_.NotifyAll();
    }
  }
  return id;
}

void Server::KillCore(int core) {
  pool_.KillCore(core);
  monitor_.NotifySuspicion();
}

void Server::KillLink(int src_core, int dst_core) {
  pool_.KillLink(src_core, dst_core);
  monitor_.NotifySuspicion();
}

void Server::KillChip() {
  pool_.KillChip(chip_.num_cores);
  monitor_.NotifySuspicion();
}

void Server::WaitIdle() {
  MutexLock lock(mu_);
  while (outstanding_ != 0 || state_ == ServerState::kReplanning) {
    idle_cv_.Wait(mu_);
  }
}

std::vector<Response> Server::TakeResponses() {
  MutexLock lock(mu_);
  std::vector<Response> taken = std::move(responses_);
  responses_.clear();
  return taken;
}

Status Server::Shutdown() {
  {
    MutexLock lock(mu_);
    if (state_ == ServerState::kStopped) {
      return failed_status_;
    }
    while (state_ == ServerState::kReplanning) {
      state_cv_.Wait(mu_);
    }
    if (state_ == ServerState::kIdle) {
      state_ = ServerState::kStopped;
      return Status::Ok();
    }
    if (state_ == ServerState::kServing) {
      state_ = ServerState::kDraining;  // kFailed keeps draining as kFailed.
    }
    state_cv_.NotifyAll();
  }
  scheduler_.Close();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  monitor_.Stop();
  Status result;
  bool chip_lost = false;
  {
    MutexLock lock(mu_);
    chip_lost = state_ == ServerState::kFailed;
    result = state_ == ServerState::kFailed ? failed_status_ : Status::Ok();
    failed_status_ = result;
    state_ = ServerState::kStopped;
    state_cv_.NotifyAll();
    idle_cv_.NotifyAll();
  }
  if (chip_lost) {
    // The chip is permanently gone and every worker has joined: release the
    // dead chip's simulated scratchpad and channel staging state so a
    // cluster that repartitioned around it does not keep its memory
    // resident (elastic pipeline recovery retires failed stage servers).
    const std::int64_t released = pool_.ReleaseMachines();
    obs::Log(options_.journal, obs::Severity::kInfo, "serve", "server.storage_released",
             /*request_id=*/-1, /*plan_epoch=*/-1,
             std::to_string(released) + "B of dead-chip scratchpad state released");
  }
  return result;
}

ServerState Server::state() const {
  MutexLock lock(mu_);
  return state_;
}

int Server::num_op_slots() const {
  MutexLock lock(mu_);
  return plans_ == nullptr ? 0 : plans_->num_op_slots();
}

std::string Server::op_slot_name(int slot) const {
  MutexLock lock(mu_);
  // NOLINTNEXTLINE(lint.serve.check): caller contract requires Start() before slot queries.
  T10_CHECK(plans_ != nullptr);
  return plans_->slot(slot).op_name;
}

int Server::plan_epoch() const {
  MutexLock lock(mu_);
  return plans_ == nullptr ? -1 : plans_->epoch();
}

ServerStats Server::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

Status Server::failed_status() const {
  MutexLock lock(mu_);
  return state_ == ServerState::kFailed ? failed_status_ : Status::Ok();
}

std::int64_t Server::outstanding() const {
  MutexLock lock(mu_);
  return outstanding_;
}

int Server::queue_depth() const { return scheduler_.size(); }

std::optional<Clock::time_point> Server::PeekLatestVictimDeadline() const {
  return scheduler_.PeekLatestVictimDeadline();
}

bool Server::TryShedLatestDeadline() {
  std::optional<AdmittedRequest> victim = scheduler_.EvictLatest();
  if (!victim.has_value()) {
    return false;
  }
  Response response;
  response.id = victim->id;
  response.op_slot = victim->request.op_slot;
  response.status =
      ResourceExhaustedError("brownout: shed for an earlier-deadline request");
  response.latency_seconds = SecondsSince(victim->admitted_at);
  if (victim->trace.active()) {
    const Clock::time_point now = Clock::now();
    victim->trace.tracer->AddCompleted(victim->trace, "respond", now, now,
                                       {{"status", response.status.ToString()}});
  }
  Deliver(std::move(response));
  return true;
}

void Server::WorkerLoop(int worker) {
  while (true) {
    std::optional<AdmittedRequest> popped = scheduler_.PopBlocking();
    if (!popped.has_value()) {
      return;  // Closed and drained.
    }
    std::shared_ptr<PlanSet> plans;
    Status failed;
    {
      // Pause while the circuit is open: the replan drain below waits for
      // in_flight_ == 0, and requests popped meanwhile execute on the *new*
      // epoch once the swap completes.
      MutexLock lock(mu_);
      while (state_ == ServerState::kReplanning) {
        state_cv_.Wait(mu_);
      }
      if (state_ == ServerState::kFailed) {
        failed = failed_status_;
      } else {
        plans = plans_;
        ++in_flight_;
      }
    }
    if (!failed.ok()) {
      // Drain path of a dead server: the one-response invariant still holds,
      // every queued request learns why the server went down, and its queue
      // wait still receives the flow arrow a pre-failover requeue emitted.
      EndQueueWait(*popped);
      Response response;
      response.id = popped->id;
      response.op_slot = popped->request.op_slot;
      response.status = UnavailableError("server failed: " + failed.ToString());
      response.latency_seconds = SecondsSince(popped->admitted_at);
      Deliver(std::move(response));
      continue;
    }
    Process(worker, *std::move(popped), plans);
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) {
        drain_cv_.NotifyAll();
      }
    }
  }
}

void Server::Process(int worker, AdmittedRequest admitted,
                     const std::shared_ptr<PlanSet>& plans) {
  // Copy before the requeue path can move `admitted` away.
  const obs::TraceContext trace = admitted.trace;
  const Clock::time_point admitted_at = admitted.admitted_at;

  Response response;
  response.id = admitted.id;
  response.op_slot = admitted.request.op_slot;
  response.plan_epoch = plans->epoch();

  // Every terminal path funnels through here so the request's trace always
  // ends with a "respond" span, OK or not.
  auto deliver = [&]() {
    response.latency_seconds = SecondsSince(admitted_at);
    if (trace.active()) {
      const Clock::time_point now = Clock::now();
      trace.tracer->AddCompleted(trace, "respond", now, now,
                                 {{"status", response.status.ToString()},
                                  {"latency_s", std::to_string(response.latency_seconds)}});
    }
    Deliver(std::move(response));
  };

  EndQueueWait(admitted);

  if (admitted.ExpiredAt(Clock::now())) {
    DeadlineCounter().Increment();
    obs::Log(options_.journal, obs::Severity::kWarn, "serve", "request.deadline_exceeded",
             admitted.id, plans->epoch(), "expired in queue");
    response.status = DeadlineExceededError("deadline expired in queue");
    deliver();
    return;
  }

  obs::Span execute_span = obs::StartSpan(trace, "execute", &ExecuteHistogram());
  if (execute_span.active()) {
    execute_span.AddAttr("worker", std::to_string(worker));
    execute_span.AddAttr("plan_epoch", std::to_string(plans->epoch()));
  }
  ExecuteOutcome outcome =
      pool_.Execute(worker, *plans, admitted.request.op_slot, admitted.request.input_seed,
                    admitted.request.max_retries, admitted.has_deadline, admitted.deadline,
                    execute_span.active() ? execute_span.context() : trace);
  if (outcome.status.ok() && options_.pace_time_scale > 0.0) {
    // Simulated-time pacing: the request occupies this worker for at least
    // the dilated cost-model time, so throughput tracks simulated chip
    // capacity (slower degraded epochs naturally serve fewer QPS).
    const double target = options_.pace_time_scale *
                          plans->slot(admitted.request.op_slot).simulated_seconds;
    const double elapsed = execute_span.ElapsedSeconds();
    if (elapsed < target) {
      std::this_thread::sleep_for(std::chrono::duration<double>(target - elapsed));
    }
  }
  if (execute_span.active()) {
    execute_span.AddAttr("status", outcome.status.ToString());
    execute_span.AddAttr("retries", std::to_string(outcome.retries_used));
  }
  response.retries = outcome.retries_used;
  if (outcome.status.code() == StatusCode::kUnavailable) {
    monitor_.NotifySuspicion();
    // Persistent fault in the path: park the request back in the queue so it
    // completes under the post-failover plan instead of failing. Bounded, in
    // case no failover materializes.
    if (admitted.requeues < kMaxRequeues) {
      const std::uint64_t flow_id = RequeueFlowId(admitted.id, admitted.requeues + 1);
      if (scheduler_.Requeue(std::move(admitted)).ok()) {
        // The flow arrow starts at this (still open) execute span and lands
        // on the post-failover queue.wait span — the visual link across the
        // epoch. A requeue the closed scheduler refuses gets no arrow.
        execute_span.SetFlowOut(flow_id);
        execute_span.End();
        RequeueCounter().Increment();
        MutexLock lock(mu_);
        ++stats_.requeued;
        return;  // Response deferred to the re-execution.
      }
      // Scheduler closed mid-drain; answer now.
    }
    execute_span.End();
    response.status = outcome.status;
    deliver();
    return;
  }
  const double execute_seconds = execute_span.End();

  if (!outcome.status.ok()) {
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      DeadlineCounter().Increment();
      obs::Log(options_.journal, obs::Severity::kWarn, "serve", "request.deadline_exceeded",
               response.id, plans->epoch(), "expired between attempts");
    }
    response.status = outcome.status;
    deliver();
    return;
  }

  if (admitted.ExpiredAt(Clock::now())) {
    // Mid-batch expiry: the work finished but the contract did not.
    DeadlineCounter().Increment();
    obs::Log(options_.journal, obs::Severity::kWarn, "serve", "request.deadline_exceeded",
             response.id, plans->epoch(), "expired during execution");
    response.status = DeadlineExceededError("deadline expired during execution");
    deliver();
    return;
  }

  if (options_.plan_timings != nullptr) {
    options_.plan_timings->Record(
        OperatorSignature(graph_.op(plans->slot(admitted.request.op_slot).op_index)),
        plans->epoch(), execute_seconds);
  }

  // Integrity: an OK response must reproduce the fault-free bytes.
  obs::Span audit_span = obs::StartSpan(trace, "audit");
  StatusOr<std::shared_ptr<const PlanSet::Reference>> reference =
      plans->ReferenceFor(admitted.request.op_slot, admitted.request.input_seed);
  if (!reference.ok()) {
    response.status =
        InternalError("reference run failed: " + reference.status().ToString());
    deliver();
    return;
  }
  response.checksum = fault::Checksum(
      reinterpret_cast<const std::byte*>(outcome.output.data.data()),
      static_cast<std::int64_t>(outcome.output.data.size() * sizeof(float)));
  response.bit_identical = (*reference)->shape == outcome.output.shape &&
                           (*reference)->checksum == response.checksum &&
                           (*reference)->data == outcome.output.data;
  if (audit_span.active()) {
    audit_span.AddAttr("bit_identical", response.bit_identical ? "true" : "false");
  }
  audit_span.End();
  response.status = Status::Ok();
  response.output = std::move(outcome.output);
  deliver();
}

void Server::Deliver(Response response) {
  LatencyHistogram().Record(response.latency_seconds);
  ResponseCounter().Increment();
  obs::Log(options_.journal,
           response.status.ok() ? obs::Severity::kInfo : obs::Severity::kWarn, "serve",
           "request.response", response.id, response.plan_epoch,
           response.status.ToString());
  if (!response.status.ok()) {
    // Any non-OK terminal status is a flight-recorder trigger: the ring
    // holds the events leading up to it, the dump preserves them.
    DumpFlightRecorder("non_ok_response: " + response.status.ToString());
  }
  {
    MutexLock lock(mu_);
    ++stats_.responses;
    if (response.status.ok()) {
      ++stats_.ok;
    } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats_.deadline_exceeded;
    } else {
      ++stats_.failed;
    }
    if (!options_.on_response) {
      responses_.push_back(std::move(response));
    }
    --outstanding_;
    if (outstanding_ == 0) {
      idle_cv_.NotifyAll();
    }
  }
  if (options_.on_response) {
    // Outside mu_: the callback may re-enter this server (Submit on redirect)
    // or touch sibling shards; holding serve.server.mu here would nest the
    // same lock site and trip the deadlock detector.
    options_.on_response(std::move(response));
  }
}

void Server::OnDegraded(const TopologyHealth& merged) {
  ServerState resume;
  int next_epoch;
  // The whole failover is one span on the shared "serve" lane (trace id 0:
  // not request-scoped).
  obs::TraceContext failover_ctx;
  if (options_.tracer != nullptr) {
    failover_ctx = options_.tracer->Root(0, "serve");
  }
  obs::Span failover_span = obs::StartSpan(failover_ctx, "failover");
  {
    MutexLock lock(mu_);
    if (state_ != ServerState::kServing && state_ != ServerState::kDraining) {
      return;  // Already failed or stopped; nothing to fail over.
    }
    resume = state_;
    state_ = ServerState::kReplanning;
    state_cv_.NotifyAll();
    obs::Log(options_.journal, obs::Severity::kWarn, "serve", "failover.detected",
             /*request_id=*/-1, plans_->epoch(),
             std::to_string(merged.failed_cores.size()) + " failed core(s), " +
                 std::to_string(merged.failed_links.size()) + " failed link(s)");
    // Drain: requests already inside Process() finish (or re-queue) on the
    // old epoch before the swap.
    obs::Span drain_span = obs::StartSpan(failover_span.context(), "failover.drain");
    while (in_flight_ != 0) {
      drain_cv_.Wait(mu_);
    }
    drain_span.End();
    next_epoch = plans_->epoch() + 1;
    obs::Log(options_.journal, obs::Severity::kInfo, "serve", "failover.drain",
             /*request_id=*/-1, next_epoch, "in-flight work drained");
  }

  StatusOr<std::shared_ptr<PlanSet>> built = [&] {
    obs::Span replan_span =
        obs::StartSpan(failover_span.context(), "failover.replan", &ReplanHistogram());
    return PlanSet::Build(chip_, graph_, merged, options_.compile, next_epoch,
                          options_.verify_before_activate, options_.journal,
                          options_.fault_tolerance);
  }();

  bool swapped = false;
  {
    MutexLock lock(mu_);
    if (built.ok()) {
      plans_ = *std::move(built);
      state_ = resume;
      ++stats_.failovers;
      stats_.plan_epoch = next_epoch;
      FailoverCounter().Increment();
      EpochGauge().Set(static_cast<double>(next_epoch));
      monitor_.SetAppliedHealth(merged);
      obs::Log(options_.journal, obs::Severity::kInfo, "serve", "failover.hot_swap",
               /*request_id=*/-1, next_epoch, "serving epoch " + std::to_string(next_epoch));
      swapped = true;
    } else {
      failed_status_ = built.status();
      state_ = ServerState::kFailed;
      FailoverFailedCounter().Increment();
      // Suppress further callbacks for this mask; the server is already dead.
      monitor_.SetAppliedHealth(merged);
      obs::Log(options_.journal, obs::Severity::kError, "serve", "failover.park_failed",
               /*request_id=*/-1, next_epoch, failed_status_.ToString());
    }
    state_cv_.NotifyAll();
    idle_cv_.NotifyAll();
  }
  failover_span.End();
  DumpFlightRecorder(swapped ? "failover: hot-swapped epoch " + std::to_string(next_epoch)
                             : "failover: replan failed, server parked in kFailed");
}

void Server::DumpFlightRecorder(const std::string& reason) {
  if (options_.flight_recorder_path.empty() || options_.journal == nullptr) {
    return;
  }
  const Status dumped = obs::DumpPostMortem(options_.flight_recorder_path, reason,
                                            options_.journal, options_.tracer);
  if (!dumped.ok()) {
    obs::Log(options_.journal, obs::Severity::kError, "serve", "flight_recorder.error",
             /*request_id=*/-1, /*plan_epoch=*/-1, dumped.ToString());
  }
}

}  // namespace serve
}  // namespace t10
