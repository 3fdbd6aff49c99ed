#include "src/serve/router.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string_view>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/verify/cluster_checks.h"

namespace t10 {
namespace serve {

namespace {

// Router instruments, registered together on first use.
struct RouterMetrics {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& submitted = registry.GetCounter("router.submitted.count");
  obs::Counter& responses = registry.GetCounter("router.responses.count");
  obs::Counter& redirects = registry.GetCounter("router.redirect.count");
  obs::Counter& hedges = registry.GetCounter("router.hedge.count");
  obs::Counter& hedge_wasted = registry.GetCounter("router.hedge.wasted");
  obs::Counter& brownout_shed = registry.GetCounter("router.brownout.shed");
  obs::Counter& shard_downs = registry.GetCounter("router.shard_down.count");
  obs::Counter& rebalances = registry.GetCounter("router.rebalance.count");
  obs::Gauge& routable = registry.GetGauge("router.shards.routable");
  obs::Counter& handoffs = registry.GetCounter("router.pipeline.handoff.count");
  obs::Histogram& handoff_seconds = registry.GetHistogram("router.pipeline.handoff.seconds");
  obs::Counter& stage_downs = registry.GetCounter("router.pipeline.stage_down.count");
  obs::Counter& repartitions = registry.GetCounter("router.cluster.repartition.count");
  obs::Histogram& repartition_seconds =
      registry.GetHistogram("router.cluster.repartition.seconds");
};

RouterMetrics& Metrics() {
  static RouterMetrics metrics;
  return metrics;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

bool Routable(ShardState state) {
  return state == ShardState::kHealthy || state == ShardState::kRejoining;
}

// Flow-arrow id for the redirect chain of one client request; the high bit
// block keeps these distinct from the servers' requeue-flow ids.
std::uint64_t RedirectFlowId(std::int64_t client_id, int seq) {
  return (std::uint64_t{1} << 48) + static_cast<std::uint64_t>(client_id) * 16 +
         static_cast<std::uint64_t>(seq);
}

// Shard request ids live in disjoint blocks so responses, traces, and journal
// entries from different chips never collide.
constexpr std::int64_t kShardIdBlock = 1'000'000'000;

}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kRejoining:
      return "rejoining";
    case ShardState::kDraining:
      return "draining";
    case ShardState::kDown:
      return "down";
  }
  return "unknown";
}

const char* ShardModeName(ShardMode mode) {
  switch (mode) {
    case ShardMode::kReplicated:
      return "replicated";
    case ShardMode::kPipeline:
      return "pipeline";
  }
  return "unknown";
}


Router::Router(const ChipSpec& chip, const Graph& graph, RouterOptions options)
    : options_(std::move(options)),
      graph_(graph),
      replica_model_(Compiler(chip, options_.shard.compile).Compile(graph)) {
  // NOLINTNEXTLINE(lint.serve.check): constructor precondition, before any request exists.
  T10_CHECK_GE(options_.num_shards, 1) << "router shard count";
  stages_.resize(1);
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(MakeShard(chip, graph_, replica_model_, /*stage=*/0, /*chip_index=*/-1));
  }
  MutexLock lock(mu_);
  IndexShardsLocked();
}

Router::Router(const ClusterSpec& cluster, const Graph& graph, RouterOptions options)
    : options_(std::move(options)),
      graph_(graph),
      mode_(ShardMode::kPipeline),
      ops_per_request_(graph.num_ops()),
      cluster_(cluster),
      compiled_(ShardedCompiler(cluster_, options_.shard.compile).Compile(graph)) {
  if (!compiled_.fits) {
    return;  // No shards; Start() reports the reason.
  }
  stages_ = ChainStages(compiled_);
  for (int s = 0; s < compiled_.num_stages(); ++s) {
    shards_.push_back(MakeStageShard(compiled_, s));
  }
  MutexLock lock(mu_);
  chip_down_.assign(static_cast<std::size_t>(cluster_.num_chips()), false);
  IndexShardsLocked();
}

Router::~Router() {
  const Status ignored = Shutdown();
  (void)ignored;
}

std::unique_ptr<Router::Shard> Router::MakeShard(const ChipSpec& chip, const Graph& graph,
                                                 const CompiledModel& model, int stage,
                                                 int chip_index) {
  auto shard = std::make_unique<Shard>();
  shard->graph = &graph;
  ServerOptions per_shard = options_.shard;
  {
    MutexLock lock(mu_);
    shard->token = next_token_++;
    per_shard.request_id_base = next_id_block_++ * kShardIdBlock;
  }
  per_shard.on_response = [this, token = shard->token](Response response) {
    OnShardResponse(token, std::move(response));
  };
  shard->stage = stage;
  shard->chip = chip_index;
  shard->server = std::make_unique<Server>(chip, graph, std::move(per_shard), &model);
  return shard;
}

std::unique_ptr<Router::Shard> Router::MakeStageShard(const ShardedCompiledModel& compiled,
                                                      int stage) {
  const CompiledStage& compiled_stage = compiled.stages[static_cast<std::size_t>(stage)];
  return MakeShard(cluster_.chips[static_cast<std::size_t>(compiled_stage.chip_index)],
                   *compiled_stage.graph, compiled_stage.model, stage, compiled_stage.chip_index);
}

std::vector<Router::Stage> Router::ChainStages(const ShardedCompiledModel& compiled) {
  std::vector<Stage> stages(compiled.stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    stages[s].handoff = compiled.stages[s].transfer;
  }
  return stages;
}

void Router::IndexShardsLocked() {
  for (Stage& stage : stages_) {
    stage.replicas.clear();
  }
  shard_of_token_.clear();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    stages_[static_cast<std::size_t>(shards_[i]->stage)].replicas.push_back(
        static_cast<int>(i));
    shard_of_token_[shards_[i]->token] = static_cast<int>(i);
  }
}

int Router::StageOfOp(int op) const {
  int stage = 0;
  while (stage + 1 < static_cast<int>(stages_.size()) &&
         op >= stages_[static_cast<std::size_t>(stage) + 1].first_op) {
    ++stage;
  }
  return stage;
}

int Router::LiveReplicasLocked(int stage) const {
  int live = 0;
  for (const int r : stages_[static_cast<std::size_t>(stage)].replicas) {
    if (shards_[static_cast<std::size_t>(r)]->state != ShardState::kDown) {
      ++live;
    }
  }
  return live;
}

std::string Router::LayoutLocked() const {
  std::string layout;
  for (std::size_t s = 0; s < compiled_.stages.size(); ++s) {
    const int chip = compiled_.stages[s].chip_index;
    if (!layout.empty()) {
      layout += " | ";
    }
    layout += "stage " + std::to_string(s) + ": ops [" +
              std::to_string(compiled_.partition.stage_ops[s].first) + ", " +
              std::to_string(compiled_.partition.stage_ops[s].second) + "] on " +
              cluster_.chips[static_cast<std::size_t>(chip)].name;
  }
  return layout;
}

Status Router::Start() {
  {
    MutexLock lock(mu_);
    if (running_ || draining_ || stopped_) {
      return FailedPreconditionError("router already started");
    }
  }
  if (shards_.empty()) {
    // The pipeline ctor's sharded compile did not fit; nothing can serve.
    if (!compiled_.partition.feasible) {
      return FailedPreconditionError("pipeline partition infeasible: " + compiled_.unfit_reason);
    }
    return ResourceExhaustedError(compiled_.unfit_reason);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Status started = shards_[i]->server->Start();
    if (!started.ok()) {
      for (std::size_t j = 0; j < i; ++j) {
        const Status stopped = shards_[j]->server->Shutdown();
        (void)stopped;
      }
      return started;
    }
  }
  // Chain positions: stage s covers its replicas' op slots, after stage s-1.
  int chain_ops = 0;
  for (Stage& stage : stages_) {
    stage.first_op = chain_ops;
    stage.num_ops =
        shards_[static_cast<std::size_t>(stage.replicas.front())]->server->num_op_slots();
    chain_ops += stage.num_ops;
  }
  obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.start",
           /*request_id=*/-1, /*plan_epoch=*/-1,
           std::to_string(num_shards()) + " shard(s), mode " + ShardModeName(mode_));
  std::string layout;
  {
    MutexLock lock(mu_);
    num_op_slots_ = chain_ops / ops_per_request_;
    running_ = true;
    layout = LayoutLocked();
  }
  if (!layout.empty()) {
    obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.pipeline.start",
             /*request_id=*/-1, /*plan_epoch=*/-1, layout);
  }
  Metrics().routable.Set(static_cast<double>(num_shards()));
  monitor_ = std::thread(&Router::MonitorLoop, this);
  return Status::Ok();
}

StatusOr<std::int64_t> Router::Submit(const Request& request) {
  if (request.max_retries < 0) {
    return InvalidArgumentError("max_retries must be >= 0");
  }
  std::int64_t client_id = -1;
  {
    MutexLock lock(mu_);
    if (!running_ || draining_) {
      return FailedPreconditionError("router not serving");
    }
    if (cluster_failed_) {
      // park_failed brownout: the cluster cannot be repartitioned around its
      // losses. In-flight work still answers; new admissions refuse cleanly.
      return UnavailableError("cluster degraded beyond repair: " +
                              cluster_failed_reason_);
    }
    if (request.op_slot < 0 || request.op_slot >= num_op_slots_) {
      return InvalidArgumentError("op_slot " + std::to_string(request.op_slot) +
                                  " out of range [0, " + std::to_string(num_op_slots_) +
                                  ")");
    }
    client_id = next_client_id_++;
    Pending pending;
    pending.request = request;
    pending.client_id = client_id;
    pending.admitted_at = Clock::now();
    pending.has_deadline = request.deadline_seconds > 0.0;
    pending.deadline =
        pending.has_deadline
            ? pending.admitted_at + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            request.deadline_seconds))
            : Clock::time_point::max();
    pending.hedge_at =
        (pending.has_deadline && options_.hedge_fraction > 0.0)
            ? pending.admitted_at + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(
                                            options_.hedge_fraction *
                                            request.deadline_seconds))
            : Clock::time_point::max();
    pending.op = request.op_slot * ops_per_request_;
    pending.last_op = pending.op + ops_per_request_ - 1;
    pending.stage = StageOfOp(pending.op);
    if (options_.tracer != nullptr) {
      pending.trace = options_.tracer->Root(static_cast<std::uint64_t>(client_id),
                                            "rtr:" + std::to_string(client_id));
      const Clock::time_point now = Clock::now();
      options_.tracer->AddCompleted(pending.trace, "router.admit", pending.admitted_at,
                                    now,
                                    {{"op_slot", std::to_string(request.op_slot)},
                                     {"deadline_s",
                                      std::to_string(request.deadline_seconds)}});
    }
    ++stats_.submitted;
    pending_.emplace(client_id, std::move(pending));
  }
  const Status routed = SubmitAttempt(client_id, /*avoid=*/-1, "route");
  if (!routed.ok()) {
    // Synchronous admission failure: withdraw the entry — the caller learns
    // now, no Response will follow.
    MutexLock lock(mu_);
    pending_.erase(client_id);
    --stats_.submitted;
    if (pending_.empty()) {
      idle_cv_.NotifyAll();
    }
    return routed;
  }
  Metrics().submitted.Increment();
  return client_id;
}

int Router::PickShard(int stage, int avoid, const std::vector<bool>& tried) {
  const std::vector<int>& replicas = stages_[static_cast<std::size_t>(stage)].replicas;
  const std::uint64_t n = replicas.size();
  const std::uint64_t rotate = round_robin_++;
  int best = -1;
  double best_load = std::numeric_limits<double>::infinity();
  for (std::uint64_t k = 0; k < n; ++k) {
    const int i = replicas[static_cast<std::size_t>((rotate + k) % n)];
    const Shard& shard = *shards_[static_cast<std::size_t>(i)];
    if (i == avoid || (!tried.empty() && tried[static_cast<std::size_t>(i)]) ||
        !Routable(shard.state)) {
      continue;
    }
    const double load =
        static_cast<double>(shard.attempts_in_flight + 1) / shard.weight;
    if (load < best_load) {
      best_load = load;
      best = i;
    }
  }
  return best;
}

Status Router::SubmitAttempt(std::int64_t client_id, int avoid, const char* kind) {
  // Only the initial route and a hedge hand their refusal back: Submit()
  // still owns a route's entry, and a hedge's primary attempt owns the
  // response. Every later step answers the client here.
  const std::string_view step(kind);
  const bool caller_owns_refusal = step == "route" || step == "hedge";
  std::vector<bool> tried;  // Sized on the first refusal only.
  bool brownout_tried = false;
  Status refusal;
  while (true) {
    Request request;
    int stage = 0;
    int target = -1;
    Server* server = nullptr;
    bool expired = false;
    {
      MutexLock lock(mu_);
      auto it = pending_.find(client_id);
      if (it == pending_.end() || it->second.delivered) {
        return Status::Ok();  // Resolved while this step was being routed.
      }
      Pending& p = it->second;
      if (recovering_ && !draining_) {
        // cluster_draining: the chain parks at this exact position (no
        // redirect budget burned — the failure is the cluster's, not the
        // chain's) and resumes after the hot swap with its remaining budget.
        p.retry_wait = true;
        return Status::Ok();
      }
      stage = p.stage;
      request = p.request;
      request.op_slot = p.op - stages_[static_cast<std::size_t>(stage)].first_op;
      if (p.has_deadline) {
        // Every step — route, handoff, redirect, hedge — carries the
        // REMAINING budget, not the original end-to-end deadline: time spent
        // queued, failing over or parked is charged, so the shard's EDF
        // queue orders this request by its true slack.
        const double remaining =
            std::chrono::duration<double>(p.deadline - Clock::now()).count();
        if (remaining <= 0.0) {
          expired = true;
        } else {
          request.deadline_seconds = remaining;
        }
      }
      if (!expired) {
        // Snapshot under mu_: a hot swap may rewrite shards_, but the
        // pointed-to server outlives the router (retired_shards_ keeps it).
        target = PickShard(stage, avoid, tried);
        server = target >= 0 ? shards_[static_cast<std::size_t>(target)]->server.get()
                             : nullptr;
      }
    }
    if (expired) {
      Status why = DeadlineExceededError("deadline budget exhausted before the " +
                                         std::string(kind) + " to stage " +
                                         std::to_string(stage));
      if (caller_owns_refusal) {
        return why;
      }
      FailPending(client_id, std::move(why));
      return Status::Ok();
    }
    if (target < 0) {
      if (refusal.code() == StatusCode::kResourceExhausted && !brownout_tried) {
        // Every routable replica's queue is full: brownout admission, once.
        brownout_tried = true;
        if (TryBrownout(request, stage, avoid)) {
          tried.clear();  // Retry every replica, the freed one included.
          continue;
        }
      }
      if (refusal.ok()) {
        refusal = UnavailableError("no routable replica of stage " + std::to_string(stage));
      }
      break;
    }
    StatusOr<std::int64_t> shard_request_id = server->Submit(request);
    if (shard_request_id.ok()) {
      std::optional<Response> ready = RegisterAttempt(client_id, target, *shard_request_id);
      if (options_.journal != nullptr) {
        obs::Log(options_.journal, obs::Severity::kDebug, "router", "router.route",
                 client_id, /*plan_epoch=*/-1,
                 std::string(kind) + " -> shard " + std::to_string(target) + " (stage " +
                     std::to_string(stage) + " op " + std::to_string(request.op_slot) +
                     ")");
      }
      if (ready.has_value()) {
        ResolveAttempt(target, client_id, std::move(*ready));
      }
      return Status::Ok();
    }
    refusal = shard_request_id.status();
    tried.resize(shards_.size());
    tried[static_cast<std::size_t>(target)] = true;
  }
  if (caller_owns_refusal) {
    return refusal;
  }
  // A later step: the client already holds a ticket. A single-replica
  // stage refusing kUnavailable is usually its admission circuit open during
  // a replan — park the chain for the monitor to retry, budget permitting.
  // Anything else must surface as the one response, never as a lost request.
  bool parked = false;
  {
    MutexLock lock(mu_);
    auto it = pending_.find(client_id);
    if (it != pending_.end() && !it->second.delivered &&
        stages_[static_cast<std::size_t>(it->second.stage)].replicas.size() == 1) {
      parked = RetryStepLocked(it->second, refusal.code());
    }
  }
  if (parked) {
    Metrics().redirects.Increment();
    obs::Log(options_.journal, obs::Severity::kWarn, "router", "router.redirect",
             client_id, /*plan_epoch=*/-1,
             std::string("the ") + kind + " was refused: " + refusal.ToString() +
                 "; parked for retry");
    return Status::Ok();
  }
  FailPending(client_id, std::move(refusal));
  return Status::Ok();
}

bool Router::RetryStepLocked(Pending& p, StatusCode code) {
  if (code != StatusCode::kUnavailable || draining_ ||
      p.redirects >= options_.redirect_budget) {
    return false;
  }
  ++p.redirects;
  ++stats_.redirects;
  p.retry_wait = stages_[static_cast<std::size_t>(p.stage)].replicas.size() == 1;
  return true;
}

bool Router::TryBrownout(const Request& incoming, int stage, int avoid) {
  if (incoming.deadline_seconds <= 0.0) {
    return false;  // A request with no deadline is itself the latest; shed it.
  }
  std::vector<Server*> routable;
  {
    MutexLock lock(mu_);
    for (const int i : stages_[static_cast<std::size_t>(stage)].replicas) {
      if (i != avoid && Routable(shards_[static_cast<std::size_t>(i)]->state)) {
        routable.push_back(shards_[static_cast<std::size_t>(i)]->server.get());
      }
    }
  }
  // Latest victim across the stage's routable queues; a no-deadline victim
  // is "infinitely late" and wins outright.
  Server* victim = nullptr;
  bool victim_no_deadline = false;
  Clock::time_point victim_deadline = Clock::time_point::min();
  for (Server* server : routable) {
    if (server->queue_depth() == 0) {
      continue;
    }
    const std::optional<Clock::time_point> deadline = server->PeekLatestVictimDeadline();
    if (!deadline.has_value()) {
      victim = server;
      victim_no_deadline = true;
      break;
    }
    if (victim == nullptr || *deadline > victim_deadline) {
      victim = server;
      victim_deadline = *deadline;
    }
  }
  const Clock::time_point incoming_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(incoming.deadline_seconds));
  if (victim == nullptr || (!victim_no_deadline && victim_deadline <= incoming_deadline)) {
    return false;  // Nothing queued, or the incoming request is not earlier.
  }
  if (!victim->TryShedLatestDeadline()) {
    return false;  // Raced with a worker; treat as no capacity freed.
  }
  Metrics().brownout_shed.Increment();
  obs::Log(options_.journal, obs::Severity::kWarn, "router", "router.brownout_shed",
           /*request_id=*/-1, /*plan_epoch=*/-1,
           "a replica of stage " + std::to_string(stage) +
               " shed its latest-deadline request for an earlier one");
  MutexLock lock(mu_);
  ++stats_.brownout_shed;
  return true;
}

std::optional<Response> Router::RegisterAttempt(
    std::int64_t client_id, int shard, std::int64_t shard_request_id) {
  MutexLock lock(mu_);
  ++shards_[static_cast<std::size_t>(shard)]->attempts_in_flight;
  auto it = pending_.find(client_id);
  if (it != pending_.end()) {
    ++it->second.attempts_outstanding;
    it->second.last_shard = shard;
    it->second.last_attempt_at = Clock::now();
  }
  auto unmatched = unmatched_.find(shard_request_id);
  if (unmatched != unmatched_.end()) {
    Response response = std::move(unmatched->second);
    unmatched_.erase(unmatched);
    return response;
  }
  attempt_to_client_[shard_request_id] = client_id;
  return std::nullopt;
}

void Router::OnShardResponse(int token, Response response) {
  std::int64_t client_id = -1;
  int shard = -1;
  std::int64_t orphaned = -1;
  {
    MutexLock lock(mu_);
    const auto shard_it = shard_of_token_.find(token);
    auto it = attempt_to_client_.find(response.id);
    if (shard_it == shard_of_token_.end()) {
      // A retired (post-recovery) server answered. The drain barrier ran
      // before the server was retired, so no live attempt can be waiting on
      // it; if one somehow is, answer the client rather than lose it.
      if (it != attempt_to_client_.end()) {
        orphaned = it->second;
        attempt_to_client_.erase(it);
      }
    } else {
      shard = shard_it->second;
      if (it == attempt_to_client_.end()) {
        // The shard answered before RegisterAttempt ran; park the response
        // for the registration to claim.
        unmatched_.emplace(response.id, std::move(response));
        return;
      }
      client_id = it->second;
      attempt_to_client_.erase(it);
    }
  }
  if (orphaned >= 0) {
    FailPending(orphaned, InternalError("attempt resolved by a retired stage server"));
    return;
  }
  if (shard < 0) {
    return;  // Retired server, no attempt waiting: drop.
  }
  ResolveAttempt(shard, client_id, std::move(response));
}

void Router::ResolveAttempt(int shard, std::int64_t client_id, Response response) {
  const StatusCode code = response.status.code();
  int stage = 0;
  const char* next_step = nullptr;  // Resubmits the chain: advance/handoff/redirect.
  bool handoff = false;
  bool retry = false;  // A budgeted redirect or park.
  bool delivered = false;
  bool drained_shard = false;
  obs::TraceContext trace;
  {
    MutexLock lock(mu_);
    Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    --sh.attempts_in_flight;
    stage = sh.stage;

    // Breaker window: count chip-fault-shaped outcomes only — sheds and
    // deadline misses are load signals and must not trip the breaker. A
    // single-replica stage has no other replica to drain to, so it keeps none.
    const bool counted = code == StatusCode::kOk || code == StatusCode::kUnavailable ||
                         code == StatusCode::kDataLoss || code == StatusCode::kInternal;
    const bool failure = counted && code != StatusCode::kOk;
    if (counted && Routable(sh.state) &&
        stages_[static_cast<std::size_t>(stage)].replicas.size() > 1) {
      sh.window.push_back(failure);
      if (failure) {
        ++sh.window_failures;
      }
      while (static_cast<int>(sh.window.size()) > options_.failure_window) {
        if (sh.window.front()) {
          --sh.window_failures;
        }
        sh.window.pop_front();
      }
      sh.consecutive_ok = failure ? 0 : sh.consecutive_ok + 1;
      if (static_cast<int>(sh.window.size()) >= options_.failure_window &&
          static_cast<double>(sh.window_failures) >=
              options_.failure_rate_threshold *
                  static_cast<double>(sh.window.size())) {
        sh.state = ShardState::kDraining;
        sh.weight = 0.0;
        sh.drained_at = Clock::now();
        sh.window.clear();
        sh.window_failures = 0;
        sh.consecutive_ok = 0;
        ++stats_.drains;
        ++stats_.rebalances;
        drained_shard = true;
      }
    }

    auto it = pending_.find(client_id);
    if (it == pending_.end()) {
      // Orphan attempt: its client request was already resolved and reaped.
      ++stats_.hedge_wasted;
      Metrics().hedge_wasted.Increment();
    } else {
      Pending& p = it->second;
      --p.attempts_outstanding;
      p.chain_retries += response.retries;
      const int op = p.op;
      const bool late = p.delivered;
      bool deliver = false;
      if (late) {
        // Hedge loser (or late duplicate): dedupe at the router so the
        // client sees exactly one response.
        ++stats_.hedge_wasted;
        Metrics().hedge_wasted.Increment();
      } else if (response.status.ok()) {
        p.chain_identical = p.chain_identical && response.bit_identical;
        if (p.op < p.last_op) {
          const Stage& at = stages_[static_cast<std::size_t>(p.stage)];
          next_step = "advance";
          if (++p.op >= at.first_op + at.num_ops) {
            ++p.stage;
            ++stats_.handoffs;
            next_step = "handoff";
            handoff = true;
            trace = p.trace;
          }
        } else {
          // The chain's answer, from the first audit-passing attempt of its
          // last op. The audit bit is the AND over every op on the chain.
          response.retries = p.chain_retries;
          response.bit_identical = p.chain_identical;
          deliver = true;
        }
      } else if (recovering_ && !draining_ &&
                 (code == StatusCode::kUnavailable ||
                  code == StatusCode::kFailedPrecondition)) {
        // cluster_draining: the dying chip (or a survivor refusing
        // admissions behind it) failed this step. Park at the same position
        // without burning redirect budget; the hot swap resumes the chain.
        // Deadline misses and data loss still deliver — those are the
        // chain's own outcome, not the recovery's.
        p.retry_wait = true;
      } else if (RetryStepLocked(p, code)) {
        // The replica (or its path) failed this step: re-run it on another
        // replica, or — with none — park until the stage's replan lands (an
        // immediate resubmission would race the failover).
        retry = true;
        next_step = p.retry_wait ? nullptr : "redirect";
      } else if (p.attempts_outstanding == 0) {
        response.retries = p.chain_retries;
        deliver = true;
      }
      // Otherwise a hedge partner is still out and delivers its own outcome.
      if (p.trace.active()) {
        const std::uint64_t flow_in = p.last_flow;
        p.last_flow = retry ? RedirectFlowId(client_id, ++p.flow_seq) : 0;
        options_.tracer->AddCompleted(p.trace, "router.attempt", p.last_attempt_at,
                                      Clock::now(),
                                      {{"shard", std::to_string(shard)},
                                       {"stage", std::to_string(stage)},
                                       {"op", std::to_string(op)},
                                       {"status", response.status.ToString()}},
                                      p.last_flow, flow_in);
      }
      if (deliver) {
        response.shard = shard;
        DeliverLocked(it, std::move(response));
        delivered = true;
      } else if (late) {
        ReapLocked(it);
      }
    }
  }
  if (drained_shard) {
    obs::Log(options_.journal, obs::Severity::kWarn, "router", "router.drain",
             /*request_id=*/-1, /*plan_epoch=*/-1,
             "shard " + std::to_string(shard) + " breaker tripped; draining");
    EmitRebalance("breaker");
  }
  if (handoff) {
    const PlanMetrics& bill = stages_[static_cast<std::size_t>(stage)].handoff;
    Metrics().handoffs.Increment();
    Metrics().handoff_seconds.Record(bill.interchip_seconds);
    obs::Log(options_.journal, obs::Severity::kDebug, "router", "router.pipeline.handoff",
             client_id, /*plan_epoch=*/-1,
             "stage " + std::to_string(stage) + " -> " + std::to_string(stage + 1) +
                 " (" + std::to_string(bill.interchip_bytes) + "B over the link)");
    if (trace.active()) {
      const Clock::time_point now = Clock::now();
      options_.tracer->AddCompleted(trace, "router.handoff", now, now,
                                    {{"from_stage", std::to_string(stage)},
                                     {"to_stage", std::to_string(stage + 1)},
                                     {"link_seconds", std::to_string(bill.interchip_seconds)}});
    }
  }
  if (retry) {
    Metrics().redirects.Increment();
    obs::Log(options_.journal, obs::Severity::kWarn, "router", "router.redirect",
             client_id, /*plan_epoch=*/-1,
             "attempt on shard " + std::to_string(shard) + " (stage " +
                 std::to_string(stage) + ") failed: " + response.status.ToString() +
                 (next_step != nullptr ? "; redirecting" : "; parked for retry"));
  }
  if (next_step != nullptr) {
    // Failures of the next step answer the client inside SubmitAttempt.
    const Status next = SubmitAttempt(client_id, retry ? shard : -1, next_step);
    (void)next;
  }
  if (delivered) {
    Metrics().responses.Increment();
  }
}

void Router::FailPending(std::int64_t client_id, Status status) {
  {
    MutexLock lock(mu_);
    auto it = pending_.find(client_id);
    if (it == pending_.end() || it->second.delivered ||
        it->second.attempts_outstanding > 0) {
      return;  // Answered already, or a live attempt delivers its own outcome.
    }
    Response out;
    out.status = std::move(status);
    if (it->second.trace.active()) {
      const Clock::time_point now = Clock::now();
      options_.tracer->AddCompleted(it->second.trace, "router.attempt", now, now,
                                    {{"status", out.status.ToString()}});
    }
    DeliverLocked(it, std::move(out));
  }
  Metrics().responses.Increment();
}

void Router::DeliverLocked(PendingMap::iterator it, Response response) {
  Pending& p = it->second;
  p.delivered = true;
  response.id = p.client_id;
  response.op_slot = p.request.op_slot;
  response.latency_seconds = SecondsSince(p.admitted_at);
  ++stats_.responses;
  if (response.status.ok()) {
    ++stats_.ok;
  } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_exceeded;
  } else {
    ++stats_.failed;
  }
  responses_.push_back(std::move(response));
  ReapLocked(it);
}

void Router::ReapLocked(PendingMap::iterator it) {
  if (it->second.attempts_outstanding > 0) {
    return;
  }
  pending_.erase(it);
  if (pending_.empty()) {
    idle_cv_.NotifyAll();
  }
}

void Router::MonitorLoop() {
  const auto poll = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.poll_seconds));
  while (true) {
    {
      MutexLock lock(mu_);
      if (monitor_stop_) {
        return;
      }
      const std::cv_status waited = monitor_cv_.WaitFor(mu_, poll);
      (void)waited;
      if (monitor_stop_) {
        return;
      }
    }
    // Shard state sweep (server calls happen without router.mu held). Only
    // this thread rewrites shards_, so the unlocked reads are safe.
    const int n = num_shards();
    bool recover = false;
    for (int i = 0; i < n; ++i) {
      Server& server = *shards_[static_cast<std::size_t>(i)]->server;
      const ServerState state = server.state();
      if (state == ServerState::kFailed) {
        if (options_.recover_on_chip_loss && cluster_.num_chips() > 0) {
          MutexLock lock(mu_);
          // A stage losing its last replica: stage_down -> cluster_draining.
          // Set recovering_ BEFORE the shard is marked down so no chain fails
          // through the stage-down path in the gap. A loss during an active
          // recovery folds into it (the cumulative chip mask is built after
          // the drain).
          const Shard& sh = *shards_[static_cast<std::size_t>(i)];
          if (sh.state != ShardState::kDown && LiveReplicasLocked(sh.stage) == 1 &&
              !recovering_ && !cluster_failed_ && !draining_) {
            recovering_ = true;
            recover = true;
          }
        }
        MarkShardDown(i, server.failed_status());
        continue;
      }
      const int epoch = server.plan_epoch();
      bool rejoin = false;
      bool promote = false;
      std::string why;
      {
        MutexLock lock(mu_);
        Shard& sh = *shards_[static_cast<std::size_t>(i)];
        if (sh.state == ShardState::kDown) {
          continue;
        }
        if (epoch > sh.last_epoch) {
          sh.last_epoch = epoch;
          if (sh.state == ShardState::kHealthy || sh.state == ShardState::kDraining) {
            // The shard replanned (verifier-gated degraded epoch): it serves
            // again, but at reduced weight until it proves itself.
            rejoin = true;
            why = "degraded replan to epoch " + std::to_string(epoch);
          }
        } else if (sh.state == ShardState::kDraining &&
                   SecondsSince(sh.drained_at) >= options_.drain_probation_seconds) {
          rejoin = true;
          why = "drain probation elapsed";
        } else if (sh.state == ShardState::kRejoining &&
                   sh.consecutive_ok >= options_.rejoin_ok_threshold) {
          promote = true;
        }
      }
      if (rejoin) {
        MarkShardRejoining(i, why);
      } else if (promote) {
        MarkShardHealthy(i);
      }
    }
    if (recover) {
      // Runs the whole drain -> repartition -> verify -> swap sequence on
      // this thread; the parked-retry scan below resubmits the remapped
      // chains in this same iteration once the swap lands.
      RunClusterRecovery();
    }
    // Total outage: every chip gone. Announce once; pending work drains
    // through the dead shards' error paths and redirects that find no
    // survivor.
    bool announce_outage = false;
    {
      MutexLock lock(mu_);
      bool all_down = true;
      for (const auto& sh : shards_) {
        if (sh->state != ShardState::kDown) {
          all_down = false;
          break;
        }
      }
      if (all_down && !total_outage_announced_) {
        total_outage_announced_ = true;
        announce_outage = true;
      }
    }
    if (announce_outage) {
      obs::Log(options_.journal, obs::Severity::kError, "router", "router.total_outage",
               /*request_id=*/-1, /*plan_epoch=*/-1, "every shard is down");
      DumpFlightRecorder("router: total outage (every shard down)");
    }
    // One pass over the pending table:
    //   - parked chains (a single-replica stage's replan window, or a hot
    //     swap that just landed) resubmit once some replica of their stage
    //     has left kReplanning. A dead stage or an expired deadline
    //     resubmits too — SubmitAttempt turns those into the right error,
    //     answered exactly once;
    //   - deadline-bearing requests past their hedge point with one attempt
    //     outstanding on a stage with replicas get a duplicate on another.
    std::vector<std::pair<std::int64_t, int>> hedges;  // (client, avoid).
    std::vector<std::int64_t> retries;
    {
      MutexLock lock(mu_);
      const Clock::time_point now = Clock::now();
      const bool hedging = options_.hedge_fraction > 0.0 && !draining_ && !recovering_;
      for (auto& [client_id, p] : pending_) {
        if (p.delivered) {
          continue;
        }
        const std::vector<int>& replicas =
            stages_[static_cast<std::size_t>(p.stage)].replicas;
        if (p.retry_wait) {
          if (recovering_) {
            continue;  // Chains stay parked until the cluster hot swap lands.
          }
          const bool expired = p.has_deadline && now >= p.deadline;
          const bool replanning =
              std::all_of(replicas.begin(), replicas.end(), [&](int r) {
                return shards_[static_cast<std::size_t>(r)]->server->state() ==
                       ServerState::kReplanning;
              });
          if (replanning && !expired) {
            continue;  // Still failing over; keep the chain parked.
          }
          p.retry_wait = false;
          retries.push_back(client_id);
        } else if (hedging && replicas.size() > 1 && !p.hedged && p.has_deadline &&
                   p.attempts_outstanding == 1 && now >= p.hedge_at && now < p.deadline) {
          p.hedged = true;
          ++stats_.hedges;
          hedges.emplace_back(client_id, p.last_shard);
        }
      }
    }
    for (const auto& [client_id, avoid] : hedges) {
      Metrics().hedges.Increment();
      obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.hedge",
               client_id, /*plan_epoch=*/-1,
               "hedging away from shard " + std::to_string(avoid));
      // Failure to place the hedge is benign: the primary attempt is still
      // in flight and owns the response.
      const Status hedged = SubmitAttempt(client_id, avoid, "hedge");
      (void)hedged;
    }
    for (const std::int64_t client_id : retries) {
      const Status resubmitted = SubmitAttempt(client_id, /*avoid=*/-1, "retry");
      (void)resubmitted;  // Failures answered the client inside.
    }
  }
}

void Router::RunClusterRecovery() {
  const Clock::time_point started = Clock::now();
  const auto poll = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.poll_seconds));
  obs::Log(options_.journal, obs::Severity::kWarn, "router", "router.cluster.drain",
           /*request_id=*/-1, /*plan_epoch=*/-1,
           "stage chip lost; draining in-flight chains for cluster repartition");
  // cluster_draining: every chain step and every failure response parks
  // while recovering_ is set, dead servers answer their queues with errors
  // and survivors finish their current op — so this converges to "every
  // live chain parked, no shard attempt outstanding, no response in
  // flight". Threads between dropping mu_ and calling into a server always
  // hold an unparked chain or an unresolved attempt, so the barrier also
  // proves no thread still dereferences the old stage tables.
  int parked = 0;
  {
    MutexLock lock(mu_);
    while (true) {
      if (monitor_stop_ || draining_) {
        recovering_ = false;  // Shutdown owns the chains now.
        return;
      }
      bool drained = attempt_to_client_.empty() && unmatched_.empty();
      if (drained) {
        parked = 0;
        for (const auto& [client_id, p] : pending_) {
          (void)client_id;
          if (p.delivered) {
            continue;  // Reaped once its straggler resolves.
          }
          if (!p.retry_wait || p.attempts_outstanding != 0) {
            drained = false;
            break;
          }
          ++parked;
        }
      }
      if (drained) {
        break;
      }
      const std::cv_status waited = monitor_cv_.WaitFor(mu_, poll);
      (void)waited;
    }
  }

  // repartitioning: cumulative chip mask from every shard marked down (a
  // second loss during the drain folds into this same replan), then one
  // stage DP over the survivors. Survivors keep their ORIGINAL chip index.
  std::vector<bool> chip_down;
  int old_epoch = 0;
  {
    MutexLock lock(mu_);
    for (const auto& sh : shards_) {
      if (sh->state == ShardState::kDown) {
        chip_down_[static_cast<std::size_t>(sh->chip)] = true;
      }
    }
    chip_down = chip_down_;
    old_epoch = cluster_epoch_;
  }
  const auto lost = std::count(chip_down.begin(), chip_down.end(), true);
  DegradedRepartition plan = RepartitionDegraded(graph_, cluster_, chip_down);
  Metrics().repartitions.Increment();
  Metrics().repartition_seconds.Record(SecondsSince(started));
  obs::Log(options_.journal, obs::Severity::kWarn, "router", "router.cluster.repartition",
           /*request_id=*/-1, old_epoch + 1,
           std::to_string(parked) + " chain(s) parked; " + std::to_string(lost) + "/" +
               std::to_string(cluster_.num_chips()) + " chip(s) down; re-cut over " +
               std::to_string(plan.survivors.num_chips()) + " survivor(s) into " +
               std::to_string(plan.partition.feasible ? plan.partition.num_stages : 0) +
               " stage(s)");
  if (!plan.partition.feasible) {
    EnterClusterFailed("repartition infeasible: " + plan.partition.reason);
    return;
  }

  // verify_gate: the structural cluster.* rules over the survivor cut plus
  // the cluster.recovery.* rules (epoch monotonicity, no op lost across the
  // repartition, surviving-chip assignment).
  verify::VerifyResult gate =
      verify::VerifyPartition(plan.partition, graph_, plan.survivors);
  gate.Merge(
      verify::VerifyRecovery(plan, graph_, cluster_, chip_down, old_epoch, old_epoch + 1));
  if (!gate.ok()) {
    obs::Log(options_.journal, obs::Severity::kError, "router", "router.cluster.verify_gate",
             /*request_id=*/-1, old_epoch + 1,
             "verification FAILED; degraded cut not activated: " + gate.Listing());
    EnterClusterFailed("recovery verification failed");
    return;
  }
  obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.cluster.verify_gate",
           /*request_id=*/-1, old_epoch + 1, "verification passed");

  // Recompile over the gated cut. RecompileDegraded keeps every stage whose
  // operator range and chip are unchanged, and the shard borrowing that
  // stage's graph keeps serving as-is — no recompile, queue intact. Every
  // other stage gets a fresh server adopting its new compile, started
  // BEFORE the swap so the new chain never routes at a stage that cannot
  // serve. Old shards may borrow graphs either compile now owns, so neither
  // is destroyed before Shutdown. Only this thread rewrites the grid, so its
  // layout reads need no lock.
  ShardedCompiledModel recompiled =
      ShardedCompiler(cluster_, options_.shard.compile).RecompileDegraded(graph_, compiled_, plan);
  if (!recompiled.fits) {
    const std::string reason = recompiled.unfit_reason;
    retired_compiles_.push_back(std::move(recompiled));
    EnterClusterFailed("degraded recompile does not fit: " + reason);
    return;
  }
  const std::size_t new_stages = recompiled.stages.size();
  std::vector<Stage> stages = ChainStages(recompiled);
  std::vector<int> reuse(new_stages, -1);
  int reused = 0;
  std::vector<std::unique_ptr<Shard>> chain(new_stages);  // Fresh shards.
  for (std::size_t s = 0; s < new_stages; ++s) {
    for (std::size_t t = 0; t < shards_.size() && reuse[s] < 0; ++t) {
      if (shards_[t]->graph == recompiled.stages[s].graph.get()) {
        reuse[s] = static_cast<int>(t);
      }
    }
    if (reuse[s] >= 0) {
      ++reused;
      continue;
    }
    chain[s] = MakeStageShard(recompiled, static_cast<int>(s));
    const Status started_ok = chain[s]->server->Start();
    if (!started_ok.ok()) {
      for (std::size_t j = 0; j < s; ++j) {
        if (chain[j] != nullptr) {
          const Status stopped = chain[j]->server->Shutdown();
          (void)stopped;
        }
      }
      retired_compiles_.push_back(std::move(recompiled));
      EnterClusterFailed("replacement stage " + std::to_string(s) +
                         " failed to start: " + started_ok.ToString());
      return;
    }
  }
  int chain_ops = 0;
  for (std::size_t s = 0; s < new_stages; ++s) {
    const Shard& shard =
        reuse[s] >= 0 ? *shards_[static_cast<std::size_t>(reuse[s])] : *chain[s];
    stages[s].first_op = chain_ops;
    stages[s].num_ops = shard.server->num_op_slots();
    chain_ops += stages[s].num_ops;
  }

  // hot_swap: splice the new grid in, bump the cluster epoch, and re-seat
  // every parked chain on the stage now owning its exact next op (chain
  // positions are preserved across cuts). The parked-retry scan then
  // resubmits each with its remaining deadline budget.
  std::vector<Server*> newly_retired;
  std::string layout;
  {
    MutexLock lock(mu_);
    for (std::size_t s = 0; s < new_stages; ++s) {
      if (reuse[s] >= 0) {
        chain[s] = std::move(shards_[static_cast<std::size_t>(reuse[s])]);
      }
      chain[s]->stage = static_cast<int>(s);
    }
    for (auto& old : shards_) {
      if (old != nullptr) {
        newly_retired.push_back(old->server.get());
        retired_shards_.push_back(std::move(old));
      }
    }
    shards_ = std::move(chain);
    stages_ = std::move(stages);
    IndexShardsLocked();
    for (auto& [client_id, p] : pending_) {
      (void)client_id;
      if (!p.delivered) {
        p.stage = StageOfOp(p.op);
        p.retry_wait = true;
      }
    }
    retired_compiles_.push_back(std::move(compiled_));
    compiled_ = std::move(recompiled);
    cluster_epoch_ = old_epoch + 1;
    stats_.cluster_epoch = cluster_epoch_;
    ++stats_.recoveries;
    recovering_ = false;
    total_outage_announced_ = false;  // The new chain serves again.
    layout = LayoutLocked();
  }
  obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.cluster.hot_swap",
           /*request_id=*/-1, old_epoch + 1,
           "cluster epoch " + std::to_string(old_epoch + 1) + " live after " +
               std::to_string(SecondsSince(started)) + "s: " + layout + " (" +
               std::to_string(reused) + " stage server(s) reused)");
  EmitRebalance("recovery");
  DumpFlightRecorder("router: cluster repartition to epoch " +
                     std::to_string(old_epoch + 1) + " after chip loss");
  // Retire the replaced servers. A dead server's Shutdown releases its
  // simulated scratchpad state (server.storage_released in the journal).
  for (Server* server : newly_retired) {
    const Status stopped = server->Shutdown();
    (void)stopped;
  }
}

void Router::EnterClusterFailed(const std::string& reason) {
  {
    MutexLock lock(mu_);
    cluster_failed_ = true;
    cluster_failed_reason_ = reason;
    recovering_ = false;
    ++stats_.recovery_failures;
  }
  obs::Log(options_.journal, obs::Severity::kError, "router", "router.cluster.park_failed",
           /*request_id=*/-1, /*plan_epoch=*/-1,
           "cluster recovery abandoned: " + reason +
               "; browning out — new admissions refuse kUnavailable, in-flight "
               "chains still answer");
  DumpFlightRecorder("router: cluster recovery failed: " + reason);
}

void Router::MarkShardDown(int shard, const Status& why) {
  int stage = 0;
  bool stage_lost = false;
  {
    MutexLock lock(mu_);
    Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    if (sh.state == ShardState::kDown) {
      return;
    }
    sh.state = ShardState::kDown;
    sh.weight = 0.0;
    ++stats_.shard_downs;
    ++stats_.rebalances;
    stage = sh.stage;
    stage_lost = LiveReplicasLocked(stage) == 0;
  }
  Metrics().shard_downs.Increment();
  obs::Log(options_.journal, obs::Severity::kError, "router", "router.shard_down",
           /*request_id=*/-1, /*plan_epoch=*/-1,
           "shard " + std::to_string(shard) + " lost: " + why.ToString());
  if (stage_lost) {
    Metrics().stage_downs.Increment();
    obs::Log(options_.journal, obs::Severity::kError, "router",
             "router.pipeline.stage_down", /*request_id=*/-1, /*plan_epoch=*/-1,
             "stage " + std::to_string(stage) + " lost its last replica (shard " +
                 std::to_string(shard) + "); chains crossing it fail: " + why.ToString());
  } else {
    obs::Log(options_.journal, obs::Severity::kWarn, "router", "router.drain",
             /*request_id=*/-1, /*plan_epoch=*/-1,
             "shard " + std::to_string(shard) +
                 "'s queue drains; its requests redirect to the other replicas of stage " +
                 std::to_string(stage));
  }
  EmitRebalance("shard_down");
  DumpFlightRecorder("router: shard " + std::to_string(shard) +
                     " down: " + why.ToString());
}

void Router::MarkShardRejoining(int shard, const std::string& why) {
  {
    MutexLock lock(mu_);
    Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    if (sh.state == ShardState::kDown || sh.state == ShardState::kRejoining) {
      return;
    }
    sh.state = ShardState::kRejoining;
    sh.weight = options_.rejoin_weight;
    sh.consecutive_ok = 0;
    sh.window.clear();
    sh.window_failures = 0;
    ++stats_.rebalances;
  }
  obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.rejoin", /*request_id=*/-1,
           /*plan_epoch=*/-1,
           "shard " + std::to_string(shard) + " rejoins at weight " +
               std::to_string(options_.rejoin_weight) + " (" + why + ")");
  EmitRebalance("rejoin");
}

void Router::MarkShardHealthy(int shard) {
  {
    MutexLock lock(mu_);
    Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    if (sh.state != ShardState::kRejoining) {
      return;
    }
    sh.state = ShardState::kHealthy;
    sh.weight = 1.0;
    ++stats_.rejoins;
    ++stats_.rebalances;
  }
  obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.rejoin",
           /*request_id=*/-1, /*plan_epoch=*/-1,
           "shard " + std::to_string(shard) + " promoted to full weight");
  EmitRebalance("promote");
}

void Router::EmitRebalance(const char* cause) {
  std::string weights;
  int routable = 0;
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!weights.empty()) {
        weights += " ";
      }
      weights += std::to_string(i) + ":" + ShardStateName(shards_[i]->state) + "/" +
                 std::to_string(shards_[i]->weight);
      if (Routable(shards_[i]->state)) {
        ++routable;
      }
    }
  }
  Metrics().rebalances.Increment();
  Metrics().routable.Set(static_cast<double>(routable));
  obs::Log(options_.journal, obs::Severity::kInfo, "router", "router.rebalance",
           /*request_id=*/-1, /*plan_epoch=*/-1,
           std::string(cause) + ": " + weights);
}

Server* Router::ServerOf(int shard) const {
  // Snapshot under mu_: a concurrent cluster recovery may rewrite shards_;
  // the pointed-to server stays alive (retired_shards_).
  MutexLock lock(mu_);
  return shards_[static_cast<std::size_t>(shard)]->server.get();
}

void Router::KillChip(int shard) {
  ServerOf(shard)->KillChip();
  monitor_cv_.NotifyAll();
}

void Router::KillCore(int shard, int core) { ServerOf(shard)->KillCore(core); }

void Router::WaitIdle() {
  MutexLock lock(mu_);
  while (!pending_.empty()) {
    idle_cv_.Wait(mu_);
  }
}

std::vector<Response> Router::TakeResponses() {
  MutexLock lock(mu_);
  std::vector<Response> taken = std::move(responses_);
  responses_.clear();
  return taken;
}

Status Router::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stopped_) {
      return shutdown_status_;
    }
    draining_ = true;
    monitor_stop_ = true;
    monitor_cv_.NotifyAll();
  }
  if (monitor_.joinable()) {
    monitor_.join();
  }
  Status last_failure;
  int survivors = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Status stopped = shards_[i]->server->Shutdown();
    if (stopped.ok()) {
      ++survivors;
    } else {
      last_failure = stopped;
    }
  }
  // Every shard has drained, so every attempt has resolved; anything still
  // pending never got an attempt placed (shutdown raced admission).
  std::vector<std::int64_t> leftover;
  {
    MutexLock lock(mu_);
    for (const auto& [client_id, p] : pending_) {
      (void)p;
      leftover.push_back(client_id);
    }
    unmatched_.clear();
  }
  for (const std::int64_t client_id : leftover) {
    FailPending(client_id, UnavailableError("router shutdown"));
  }
  {
    MutexLock lock(mu_);
    running_ = false;
    stopped_ = true;
    shutdown_status_ = survivors > 0 ? Status::Ok() : last_failure;
    idle_cv_.NotifyAll();
  }
  return survivors > 0 ? Status::Ok() : last_failure;
}

int Router::num_op_slots() const {
  MutexLock lock(mu_);
  return num_op_slots_;
}

std::string Router::op_slot_name(int slot) const {
  if (ops_per_request_ > 1) {
    return graph_.name();  // The slot runs the whole model.
  }
  return shards_.front()->server->op_slot_name(slot);
}

int Router::routable_shards() const {
  MutexLock lock(mu_);
  int routable = 0;
  for (const auto& sh : shards_) {
    if (Routable(sh->state)) {
      ++routable;
    }
  }
  return routable;
}

ShardSnapshot Router::shard_snapshot(int shard) const {
  ShardSnapshot snapshot;
  Server* server = nullptr;
  {
    // State/weight under mu_ (and a stable Server pointer — a concurrent
    // cluster recovery may rewrite shards_); server calls after release.
    MutexLock lock(mu_);
    const Shard& sh = *shards_[static_cast<std::size_t>(shard)];
    server = sh.server.get();
    snapshot.state = sh.state;
    snapshot.weight = sh.weight;
  }
  snapshot.plan_epoch = server->plan_epoch();
  snapshot.outstanding = server->outstanding();
  snapshot.queue_depth = server->queue_depth();
  snapshot.stats = server->stats();
  return snapshot;
}

RouterStats Router::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void Router::DumpFlightRecorder(const std::string& reason) {
  if (options_.flight_recorder_path.empty() || options_.journal == nullptr) {
    return;
  }
  const Status dumped = obs::DumpPostMortem(options_.flight_recorder_path, reason,
                                            options_.journal, options_.tracer);
  if (!dumped.ok()) {
    obs::Log(options_.journal, obs::Severity::kError, "router", "flight_recorder.error",
             /*request_id=*/-1, /*plan_epoch=*/-1, dumped.ToString());
  }
}

}  // namespace serve
}  // namespace t10
