// Sharded multi-chip serving tier (DESIGN.md "Sharded serving & chip-level
// failover" and "Sharded compilation & pipeline serving").
//
// A Router owns per-chip serve::Server shards arranged as a grid: a chain of
// stages, each stage a contiguous run of the model's operators served by a
// set of interchangeable replica shards. Both shapes the router builds are
// the same grid:
//
//   - Replicated (Router(chip, graph)): N replicas x 1 stage, each adopting
//     one compile of the model on its own copy of the chip; a request names
//     one operator (op_slot) and its chain is that one step.
//   - Pipeline (Router(cluster, graph)): 1 replica x S stages; shard s serves
//     CompiledStage s of one ShardedCompiler compile. A request runs the
//     whole model (op_slot 0) and its chain walks every operator of every
//     stage, handing off (billed from the stage's outgoing transfer program)
//     with the remaining deadline budget and its TraceContext. Bit-identity
//     of the final response is the AND over every per-op audit on the chain.
//
// One lifecycle serves both: a request holds a chain position (stage,
// current op, last op). Each step goes to a replica of the current stage;
// on success the router advances to the next op, hands off to the next
// stage, or delivers the one client response.
//
// Replica policies act across the replicas of the request's current stage:
//   - Routing: the routable replica with the lowest weighted load
//     (outstanding / weight; healthy weight 1.0, rejoining weight
//     RouterOptions::rejoin_weight), round-robin on ties.
//   - Breakers: a replica whose recent-response failure rate crosses
//     `failure_rate_threshold` over `failure_window` responses is drained
//     (no new routes) and rejoins at reduced weight after probation or a
//     fresh plan epoch.
//   - Redirects: a step that fails kUnavailable re-runs on another replica,
//     bounded per request by `redirect_budget`.
//   - Hedges: once `hedge_fraction` of a request's deadline elapses with one
//     attempt outstanding, a duplicate goes to a second replica. The first
//     audit-passing response wins; later arrivals are deduped at the router
//     and counted router.hedge.wasted.
//   - Brownout: when every routable replica's queue is full, the router
//     evicts the latest-deadline request queued across them (answered
//     kResourceExhausted) iff the incoming deadline is earlier, otherwise
//     the incoming request is shed.
//
// A stage with a single replica has no alternative: its breaker never
// drains it, it is never hedged, and a step failing kUnavailable (the
// stage's replan window) parks until the server leaves kReplanning, then
// retries on the same shard under the same redirect budget. Per-stage EDF,
// deadline enforcement and verifier-gated degraded replans run inside each
// Server, so losing cores on one chip re-plans exactly that stage.
//
// Losing a chip (server kFailed) marks the shard kDown permanently. While
// its stage keeps a live replica the shard drains (router.drain) and its
// requests redirect; when the stage loses its last replica
// (router.pipeline.stage_down) chains that must cross it are answered with
// its error, never lost or duplicated. When every shard is down the router
// journals router.total_outage, dumps the flight recorder, and keeps
// answering.
//
// Elastic recovery (RouterOptions::recover_on_chip_loss, DESIGN.md "Elastic
// pipeline recovery"): on a router built from a ClusterSpec, a stage that
// loses its last replica starts an online repartition instead. The state
// machine runs on the monitor thread:
//
//   stage_down -> cluster_draining -> repartitioning -> verify_gate
//              -> hot_swap | park_failed
//
// cluster_draining parks every in-flight chain (no redirect budget burned)
// and waits until no shard attempt is outstanding. repartitioning re-runs
// the stage DP over the surviving chips (RepartitionDegraded; survivors keep
// their original chip index) and the verify_gate re-checks the cut with the
// cluster.* and cluster.recovery.* rules. ShardedCompiler::RecompileDegraded
// then compiles the gated cut, and hot_swap bumps the cluster epoch, keeps
// exactly the shards whose stage the recompile kept, starts fresh servers
// adopting the other stages, and resumes the parked chains at their exact
// operator with their remaining deadline budget. park_failed browns the
// cluster out: new admissions are refused kUnavailable while every in-flight
// chain is still answered exactly once.
//
// Lock discipline: every Server shares the lock site "serve.server.mu", so
// the router NEVER holds its own mutex while calling into a shard (and
// Server invokes on_response outside its lock). All router decisions
// snapshot state under router.mu, release, then act.
//
// Thread-safety: the public API is fully thread-safe.

#ifndef T10_SRC_SERVE_ROUTER_H_
#define T10_SRC_SERVE_ROUTER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/sharded_compiler.h"
#include "src/hardware/chip_spec.h"
#include "src/hardware/cluster_spec.h"
#include "src/ir/graph.h"
#include "src/obs/journal.h"
#include "src/obs/span.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace t10 {
namespace serve {

// Router-side health state of one shard.
enum class ShardState {
  kHealthy,    // Routable at full weight.
  kRejoining,  // Routable at reduced weight until it proves itself.
  kDraining,   // Breaker open: not routable; existing queue drains.
  kDown,       // Chip lost (server kFailed). Permanent.
};

const char* ShardStateName(ShardState state);

// Which constructor built the router: N replicas x 1 stage (kReplicated) or
// 1 replica x S stages (kPipeline). A label for reports only; routing reads
// the stage table, never the mode.
enum class ShardMode {
  kReplicated,
  kPipeline,
};

const char* ShardModeName(ShardMode mode);

struct RouterOptions {
  int num_shards = 2;
  // Template for every shard's server; the router overrides request_id_base
  // (disjoint id space per shard) and on_response (completion plumbing).
  ServerOptions shard;

  // Monitor cadence: hedge checks, breaker evaluation, shard-state polls.
  double poll_seconds = 0.002;
  // Hedge once this fraction of a request's deadline has elapsed with one
  // attempt outstanding. <= 0 disables hedging; requests without deadlines
  // are never hedged.
  double hedge_fraction = 0.5;
  // Re-runs of a failed step allowed per request (on another replica, or
  // parked for retry on a single-replica stage) before the error is
  // returned to the client.
  int redirect_budget = 2;
  // Weight a rejoining shard routes at, and the consecutive-OK count that
  // promotes it back to kHealthy.
  double rejoin_weight = 0.25;
  int rejoin_ok_threshold = 8;
  // Breaker: non-OK fraction over the last `failure_window` responses that
  // drains a shard. The window must fill before the breaker can trip.
  double failure_rate_threshold = 0.5;
  int failure_window = 16;
  // Seconds a drained (breaker-tripped) shard waits before rejoining when no
  // replan epoch bump arrives first.
  double drain_probation_seconds = 0.1;
  // Routers built from a ClusterSpec only: when a stage loses its last
  // replica, drain the pipeline, repartition the model over the surviving
  // chips and hot-swap the stage chain under a new cluster epoch instead of
  // failing chains that cross the dead stage. Off by default — without it a chip loss keeps PR 9's
  // stage-down semantics byte for byte.
  bool recover_on_chip_loss = false;

  // Router-level observability (shard-level instruments come from
  // RouterOptions::shard). Flight-recorder dumps fire on every shard death
  // and on total outage.
  obs::Tracer* tracer = nullptr;
  obs::EventJournal* journal = nullptr;
  std::string flight_recorder_path;
};

struct ShardSnapshot {
  ShardState state = ShardState::kHealthy;
  double weight = 1.0;
  int plan_epoch = 0;
  std::int64_t outstanding = 0;
  int queue_depth = 0;
  ServerStats stats;  // The shard server's own accounting.
};

struct RouterStats {
  std::int64_t submitted = 0;   // Accepted by router admission.
  std::int64_t responses = 0;   // Delivered to the client (one per accepted).
  std::int64_t ok = 0;
  std::int64_t deadline_exceeded = 0;
  std::int64_t failed = 0;      // Non-OK, non-deadline responses.
  std::int64_t redirects = 0;   // Failed steps re-run (redirected or parked).
  std::int64_t hedges = 0;      // Duplicate attempts launched.
  std::int64_t hedge_wasted = 0;  // Hedge losers (arrived after delivery).
  std::int64_t brownout_shed = 0;  // Queued victims evicted for earlier work.
  std::int64_t handoffs = 0;    // Pipeline stage -> stage transitions.
  int shard_downs = 0;          // Shards lost permanently.
  int drains = 0;               // Breaker trips.
  int rejoins = 0;              // Promotions back to full weight.
  int rebalances = 0;           // Weight-set changes.
  int cluster_epoch = 0;        // Pipeline: bumps on every hot-swapped cut.
  int recoveries = 0;           // Pipeline: successful cluster repartitions.
  int recovery_failures = 0;    // Pipeline: park_failed recoveries (brownout).
};

class Router {
 public:
  // N replicas x 1 stage (ShardMode::kReplicated): compiles `graph` for
  // `chip` once; every shard serves that compile on its own copy of `chip`.
  // The graph must outlive the router.
  Router(const ChipSpec& chip, const Graph& graph, RouterOptions options = {});
  // 1 replica x S stages (ShardMode::kPipeline): compiles `graph` across
  // `cluster`'s chips with ShardedCompiler; shard i serves CompiledStage i on
  // its chip. options.num_shards is ignored — the partition decides. The
  // graph must outlive the router; the cluster is copied.
  Router(const ClusterSpec& cluster, const Graph& graph, RouterOptions options = {});
  ~Router();  // Implies Shutdown().

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  // Starts every shard on the router's compile and the monitor. Fails if any
  // shard fails to start (already-started shards are shut down), and on an
  // unfit pipeline compile: infeasible cut kFailedPrecondition, unfit stage
  // kResourceExhausted.
  Status Start();

  // Admits one request and routes it. Errors:
  //   kResourceExhausted  every routable shard full and the request's
  //                       deadline is not earlier than any queued victim's
  //   kUnavailable        no routable shard (all down/draining)
  //   kFailedPrecondition not started / shutting down
  //   kInvalidArgument    op_slot out of range
  // On success returns the router-level request id its Response carries.
  // Pipeline routers have one slot, 0 ("run the model"): the chain executes
  // every operator of every stage and delivers the final stage's response.
  StatusOr<std::int64_t> Submit(const Request& request);

  // Chaos hooks, chip-scoped: kill one shard's whole chip (it will park in
  // kFailed and the router fails over), or a single core on one shard.
  void KillChip(int shard);
  void KillCore(int shard, int core);

  // Blocks until every accepted request has been answered.
  void WaitIdle();

  // Drains client-facing responses delivered so far.
  std::vector<Response> TakeResponses();

  // Stops admission, shuts every shard down (their queues drain through the
  // normal response path, including redirects already in flight), joins the
  // monitor. Idempotent. Returns OK if at least one shard survived, else the
  // last shard's failure.
  Status Shutdown();

  // Current shard count (replicas x stages). A cluster recovery can change
  // it (the repartitioned chain may be shorter).
  int num_shards() const {
    MutexLock lock(mu_);
    return static_cast<int>(shards_.size());
  }
  int num_op_slots() const;
  std::string op_slot_name(int slot) const;
  // Shards currently routable (healthy or rejoining).
  int routable_shards() const;
  ShardSnapshot shard_snapshot(int shard) const;
  RouterStats stats() const;
  ShardMode mode() const { return mode_; }

 private:
  // Per-shard routing state (router-side; the Server holds its own state).
  struct Shard {
    // The graph the server borrows: graph_, or a compiled stage's subgraph,
    // which identifies the stage across a recovery's recompile.
    const Graph* graph = nullptr;
    std::unique_ptr<Server> server;
    // Stable completion-routing token the server's on_response carries;
    // shard_of_token_ maps it to the shard's CURRENT index, which a cluster
    // recovery can change.
    int token = -1;
    int stage = 0;  // The stage this shard is a replica of.
    int chip = -1;  // Index into cluster_.chips; -1 on a replicated router.
    ShardState state = ShardState::kHealthy;
    double weight = 1.0;
    std::int64_t attempts_in_flight = 0;  // Router-tracked attempts.
    // Breaker window: outcomes of the last failure_window attempt responses
    // (true = counted failure). Sheds and deadline misses stay out — they
    // are load signals, not chip-fault signals.
    std::deque<bool> window;
    int window_failures = 0;
    int consecutive_ok = 0;
    int last_epoch = 0;
    Clock::time_point drained_at{};
  };

  // One link of the request chain: a contiguous run of the model's operators
  // and the interchangeable replica shards that serve it.
  struct Stage {
    std::vector<int> replicas;  // Indices into shards_.
    int first_op = 0;           // Chain position of the replicas' op slot 0.
    int num_ops = 0;            // Op slots every replica serves (set on start).
    // The compiled stage's outgoing transfer bill (interchip_* fields), what
    // a handoff to the next stage costs.
    PlanMetrics handoff;
  };

  // One client request's routing lifecycle.
  struct Pending {
    Request request;
    std::int64_t client_id = -1;
    Clock::time_point admitted_at{};
    Clock::time_point deadline{};
    Clock::time_point hedge_at{};  // admitted_at + hedge_fraction * budget.
    bool has_deadline = false;
    int redirects = 0;
    bool hedged = false;
    bool delivered = false;
    int attempts_outstanding = 0;
    int last_shard = -1;  // Where the most recent attempt went (hedge avoid).
    Clock::time_point last_attempt_at{};
    int flow_seq = 0;            // Flow-arrow sequence across attempts.
    std::uint64_t last_flow = 0;  // Arrow the next attempt span receives.
    obs::TraceContext trace;
    // Chain position: the op that runs next (a chain position, see
    // Stage::first_op), the chain's last op, and the stage serving `op`.
    int stage = 0;
    int op = 0;
    int last_op = 0;
    bool chain_identical = true;  // AND of per-op audits so far.
    int chain_retries = 0;        // Summed shard-side retries on the chain.
    bool retry_wait = false;      // Parked until the stage leaves kReplanning.
  };
  using PendingMap = std::map<std::int64_t, Pending>;

  void MonitorLoop();
  // Completion plumbing from shard `token`'s server. The token resolves to
  // the shard's current index under mu_; a response from a retired
  // (post-recovery) server is dropped — the drain barrier guarantees no live
  // attempt can be waiting on one.
  void OnShardResponse(int token, Response response);
  // Elastic recovery, monitor thread only: drains the pipeline, repartitions
  // over the surviving chips, verifier-gates the cut and hot-swaps the stage
  // chain under cluster epoch + 1. Infeasible/unverifiable cuts (or a
  // replacement server that fails to start) park the cluster in failed
  // brownout instead. Must be called WITHOUT mu_ held, with recovering_ set.
  void RunClusterRecovery();
  // park_failed: records the brownout (new admissions refuse kUnavailable;
  // parked chains drain through the stage-down error path) and clears
  // recovering_. Must be called WITHOUT mu_ held.
  void EnterClusterFailed(const std::string& reason);
  // Applies one completed shard attempt to its client request: breaker
  // window, dedupe, then advance, hand off, deliver, redirect or park. Must
  // be called WITHOUT mu_ held.
  void ResolveAttempt(int shard, std::int64_t client_id, Response response);
  // Submits `client_id`'s current chain step to the best routable replica
  // of its stage other than `avoid` (-1 allows all), with the remaining
  // deadline budget. `kind` labels the journal entry ("route", "advance",
  // "handoff", "redirect", "retry", "hedge"). Applies brownout admission
  // when every replica's queue is full. A "route" or "hedge" step returns
  // its refusal to the caller; every later step answers the client itself
  // (or parks a single-replica stage's kUnavailable step for retry). Must
  // be called WITHOUT mu_ held.
  Status SubmitAttempt(std::int64_t client_id, int avoid, const char* kind);
  // Brownout admission: evict the latest-deadline victim queued on `stage`'s
  // routable replicas (other than `avoid`) if `incoming`'s deadline is
  // earlier. Returns false when the incoming request is itself the latest
  // (shed it). Must be called WITHOUT mu_ held.
  bool TryBrownout(const Request& incoming, int stage, int avoid);
  // Picks `stage`'s lowest weighted-load routable replica, excluding `avoid`
  // and any shard marked in `tried` (empty: none); advances the round-robin
  // tie-break. -1 when none.
  int PickShard(int stage, int avoid, const std::vector<bool>& tried) T10_REQUIRES(mu_);
  // A kUnavailable step failure re-runs the step while the redirect budget
  // lasts: on another replica when the stage has one, else parked
  // (retry_wait) until the stage leaves kReplanning. Charges the budget and
  // returns true when the step will re-run.
  bool RetryStepLocked(Pending& p, StatusCode code) T10_REQUIRES(mu_);
  // Delivers `response` as the entry's one client answer (id, op slot and
  // latency filled in; buffer + stats) and reaps the entry unless an attempt
  // is still out. Runs under mu_ so the response is visible before the
  // erase wakes WaitIdle — otherwise TakeResponses could miss it.
  void DeliverLocked(PendingMap::iterator it, Response response) T10_REQUIRES(mu_);
  // Erases a delivered entry once no attempt is outstanding.
  void ReapLocked(PendingMap::iterator it) T10_REQUIRES(mu_);
  // Answers `client_id` with `status` unless it was already delivered. While
  // an attempt is still outstanding it does nothing: that attempt delivers
  // its own outcome. Must be called WITHOUT mu_ held.
  void FailPending(std::int64_t client_id, Status status);
  // Registers a shard attempt for `client_id`, resolving the race where the
  // shard answered before the mapping existed (returns that early response
  // for the caller to resolve).
  std::optional<Response> RegisterAttempt(std::int64_t client_id, int shard,
                                          std::int64_t shard_request_id);
  // `shard`'s server, snapshot under mu_ (retired servers stay alive).
  Server* ServerOf(int shard) const;
  // Shard state transitions; all emit journal/rebalance events. Called
  // without mu_ (they take it).
  void MarkShardDown(int shard, const Status& why);
  void MarkShardRejoining(int shard, const std::string& why);
  void MarkShardHealthy(int shard);
  void EmitRebalance(const char* cause);
  void DumpFlightRecorder(const std::string& reason);

  // Builds one replica shard of `stage` serving `graph` compiled as `model`
  // on `chip` (cluster_.chips index `chip_index`, -1 if none) with a fresh
  // completion token and request-id block. The caller places it in shards_
  // and re-indexes.
  std::unique_ptr<Shard> MakeShard(const ChipSpec& chip, const Graph& graph,
                                   const CompiledModel& model, int stage, int chip_index);
  // The shard serving CompiledStage `stage` of `compiled` on its chip.
  std::unique_ptr<Shard> MakeStageShard(const ShardedCompiledModel& compiled, int stage);
  // The stage table of a sharded compile: each stage's handoff bill (op
  // ranges are set once the replicas start).
  static std::vector<Stage> ChainStages(const ShardedCompiledModel& compiled);
  // Rebuilds every stage's replica list and the token map from shards_.
  void IndexShardsLocked() T10_REQUIRES(mu_);
  // The stage whose op range holds chain position `op`.
  int StageOfOp(int op) const;
  // Replicas of `stage` not kDown.
  int LiveReplicasLocked(int stage) const T10_REQUIRES(mu_);
  // "stage s: ops [a, b] on <chip> | ..." for the journal.
  std::string LayoutLocked() const T10_REQUIRES(mu_);

  const RouterOptions options_;
  const Graph& graph_;
  const ShardMode mode_ = ShardMode::kReplicated;
  // Chain positions one request walks: 1 on a replicated router (a request
  // names one operator), the model's op count on a pipeline (a request runs
  // the model through every stage).
  const int ops_per_request_ = 1;

  const ClusterSpec cluster_;  // A pipeline router's cluster (empty otherwise).
  // The compiles the shards serve, declared first to outlive them: a
  // replicated router's one, a pipeline router's current one and those a
  // recovery replaced or abandoned (monitor thread only after Start).
  const CompiledModel replica_model_;
  ShardedCompiledModel compiled_;
  std::vector<ShardedCompiledModel> retired_compiles_;

  // The grid. Fixed after construction EXCEPT across a cluster recovery hot
  // swap, which rewrites both tables under mu_ on the monitor thread (every
  // other thread is parked behind the drain barrier). Shard routing state is
  // guarded by mu_; server pointers are const.
  std::vector<Stage> stages_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Shards replaced by a recovery. Kept alive for the router's lifetime:
  // snapshot readers may still hold their Server pointers. Mutated only on
  // the monitor thread, after the drain barrier.
  std::vector<std::unique_ptr<Shard>> retired_shards_;

  mutable Mutex mu_{"serve.router.mu"};
  CondVar idle_cv_;     // pending_ empties.
  CondVar monitor_cv_;  // Monitor wakeups (shutdown).
  bool running_ T10_GUARDED_BY(mu_) = false;
  bool draining_ T10_GUARDED_BY(mu_) = false;
  bool stopped_ T10_GUARDED_BY(mu_) = false;
  bool total_outage_announced_ T10_GUARDED_BY(mu_) = false;
  bool monitor_stop_ T10_GUARDED_BY(mu_) = false;
  // Cluster recovery state. While recovering_, every chain step parks
  // (retry_wait) instead of routing and every failure response parks instead
  // of burning redirect budget. cluster_failed_ is terminal brownout: Submit
  // refuses kUnavailable, in-flight chains still answer.
  bool recovering_ T10_GUARDED_BY(mu_) = false;
  bool cluster_failed_ T10_GUARDED_BY(mu_) = false;
  std::string cluster_failed_reason_ T10_GUARDED_BY(mu_);
  int cluster_epoch_ T10_GUARDED_BY(mu_) = 0;
  // The cumulative original-chip loss mask (indexes cluster_.chips).
  std::vector<bool> chip_down_ T10_GUARDED_BY(mu_);
  // Completion-token -> current shard index (see Shard::token).
  std::map<int, int> shard_of_token_ T10_GUARDED_BY(mu_);
  int next_token_ T10_GUARDED_BY(mu_) = 0;
  // Request-id block allocator: replacement servers get fresh disjoint id
  // blocks so their ids never collide with a retired server's.
  std::int64_t next_id_block_ T10_GUARDED_BY(mu_) = 1;
  Status shutdown_status_ T10_GUARDED_BY(mu_);
  int num_op_slots_ T10_GUARDED_BY(mu_) = 0;  // Set at Start().
  std::int64_t next_client_id_ T10_GUARDED_BY(mu_) = 1;
  std::uint64_t round_robin_ T10_GUARDED_BY(mu_) = 0;
  PendingMap pending_ T10_GUARDED_BY(mu_);
  // shard request id -> client id, for completion matching.
  std::map<std::int64_t, std::int64_t> attempt_to_client_ T10_GUARDED_BY(mu_);
  // Shard responses that arrived before their attempt was registered.
  std::map<std::int64_t, Response> unmatched_ T10_GUARDED_BY(mu_);
  std::vector<Response> responses_ T10_GUARDED_BY(mu_);
  RouterStats stats_ T10_GUARDED_BY(mu_);

  std::thread monitor_;
};

}  // namespace serve
}  // namespace t10

#endif  // T10_SRC_SERVE_ROUTER_H_
