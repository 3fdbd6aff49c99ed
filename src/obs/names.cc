#include "src/obs/names.h"

#include <algorithm>

namespace t10 {
namespace obs {

namespace {

// One entry per instrument the codebase records. Keep sorted; t10_lint_test
// asserts the order so merges stay conflict-friendly.
const char* const kMetricNames[] = {
    "cluster.compile.count",
    "cluster.compile.seconds",
    "cluster.compile.stages",
    "cluster.partition.boundary_bytes",
    "cluster.partition.stages",
    "cluster.recompile.count",
    "cluster.recompile.reused_stages",
    "cluster.transfer.bytes",
    "cluster.transfer.seconds",
    "compiler.cache.hits",
    "compiler.cache.misses",
    "compiler.compiles",
    "compiler.model.idle_bytes_per_core",
    "compiler.model.memory_peak_bytes",
    "compiler.model.traffic.setup_bytes_per_core",
    "compiler.model.traffic.shift_bytes_per_core",
    "compiler.model.traffic.transition_bytes_per_core",
    "compiler.pass.*.runs",
    "compiler.pass.*.seconds",
    "compiler.phase.cost_eval.seconds",
    "compiler.phase.enumeration.seconds",
    "compiler.phase.filtering.seconds",
    "compiler.phase.materialize.seconds",
    "compiler.phase.memory_plan.seconds",
    "compiler.phase.pareto.seconds",
    "compiler.phase.plan_cache_load.seconds",
    "compiler.phase.reconcile.seconds",
    "compiler.phase.total.seconds",
    "compiler.plan_cache.entries",
    "compiler.plan_cache.loaded_entries",
    "compiler.plan_cache.rebuilds",
    "compiler.plan_cache.rejected",
    "compiler.reconcile.delta_idle_bytes",
    "compiler.reconcile.delta_idle_bytes.dist",
    "compiler.reconcile.delta_seconds",
    "compiler.reconcile.delta_seconds.dist",
    "compiler.reconcile.steps",
    "compiler.search.costed_choices",
    "compiler.search.evaluations",
    "compiler.search.filtered_plans",
    "compiler.search.fop_visited",
    "compiler.search.fops_dominated",
    "compiler.search.pareto_plans",
    "compiler.search.relaxations",
    "compiler.search.searches",
    "exec.fault.checkpoints",
    "exec.fault.rollbacks",
    "fault.injector.bitflip",
    "fault.injector.corrupt",
    "fault.injector.drop",
    "fault.injector.events",
    "fault.injector.stall",
    "router.brownout.shed",
    "router.cluster.repartition.count",
    "router.cluster.repartition.seconds",
    "router.hedge.count",
    "router.hedge.wasted",
    "router.pipeline.handoff.count",
    "router.pipeline.handoff.seconds",
    "router.pipeline.stage_down.count",
    "router.rebalance.count",
    "router.redirect.count",
    "router.responses.count",
    "router.shard_down.count",
    "router.shards.routable",
    "router.submitted.count",
    "serve.admitted.count",
    "serve.breaker.rejected",
    "serve.deadline_exceeded.count",
    "serve.execute.seconds",
    "serve.failover.count",
    "serve.failover.failed",
    "serve.health.probes",
    "serve.latency.seconds",
    "serve.plan.epoch",
    "serve.queue.depth",
    "serve.queue.depth_peak",
    "serve.queue_wait.seconds",
    "serve.replan.seconds",
    "serve.requeued.count",
    "serve.responses.count",
    "serve.retry.count",
    "serve.shed.count",
    "sim.fault.blocked_transfers",
    "sim.fault.checksum_failures",
    "sim.fault.penalty_seconds",
    "sim.fault.retries",
    "sim.machine.bytes_sent",
    "sim.machine.copies",
    "sim.machine.interchip_blocked",
    "sim.machine.interchip_bytes",
    "sim.machine.interchip_seconds",
    "sim.machine.interchip_transfers",
    "sim.machine.per_core_bytes_sent",
    "sim.machine.rotation_steps",
    "sim.machine.rotations",
    "sim.machine.scratchpad_peak_bytes",
};

// One entry per structured event the flight recorder can hold. Sorted.
const char* const kJournalEvents[] = {
    "exec.data_loss",
    "exec.retry",
    "exec.rollback",
    "exec.unavailable",
    "failover.detected",
    "failover.drain",
    "failover.hot_swap",
    "failover.park_failed",
    "failover.replan",
    "failover.verify_gate",
    "flight_recorder.error",
    "health.probe",
    "request.admitted",
    "request.deadline_exceeded",
    "request.requeued",
    "request.response",
    "request.shed",
    "router.brownout_shed",
    "router.cluster.drain",
    "router.cluster.hot_swap",
    "router.cluster.park_failed",
    "router.cluster.repartition",
    "router.cluster.verify_gate",
    "router.drain",
    "router.hedge",
    "router.pipeline.handoff",
    "router.pipeline.stage_down",
    "router.pipeline.start",
    "router.rebalance",
    "router.redirect",
    "router.rejoin",
    "router.route",
    "router.shard_down",
    "router.start",
    "router.total_outage",
    "server.start",
    "server.storage_released",
};

const char* const kJournalSubsystems[] = {
    "compiler",
    "exec",
    "health",
    "router",
    "serve",
};

std::vector<std::string> SplitSegments(const std::string& name) {
  std::vector<std::string> segments;
  std::string::size_type start = 0;
  while (true) {
    const std::string::size_type dot = name.find('.', start);
    if (dot == std::string::npos) {
      segments.push_back(name.substr(start));
      return segments;
    }
    segments.push_back(name.substr(start, dot - start));
    start = dot + 1;
  }
}

bool SegmentOk(const std::string& segment) {
  if (segment.empty()) {
    return false;
  }
  for (char c : segment) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
      return false;
    }
  }
  return true;
}

// `pattern` segments must equal `name` segments, except '*' matches any one.
bool PatternMatches(const std::string& pattern, const std::string& name) {
  const std::vector<std::string> ps = SplitSegments(pattern);
  const std::vector<std::string> ns = SplitSegments(name);
  if (ps.size() != ns.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (ps[i] != "*" && ps[i] != ns[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool MatchesNameGrammar(const std::string& name) {
  const std::vector<std::string> segments = SplitSegments(name);
  if (segments.size() < 2) {
    return false;
  }
  return std::all_of(segments.begin(), segments.end(), SegmentOk);
}

bool IsRegisteredMetricName(const std::string& name) {
  return std::any_of(std::begin(kMetricNames), std::end(kMetricNames),
                     [&name](const char* pattern) { return PatternMatches(pattern, name); });
}

bool IsRegisteredJournalEvent(const std::string& name) {
  return std::any_of(std::begin(kJournalEvents), std::end(kJournalEvents),
                     [&name](const char* event) { return name == event; });
}

bool IsRegisteredJournalSubsystem(const std::string& subsystem) {
  return std::any_of(std::begin(kJournalSubsystems), std::end(kJournalSubsystems),
                     [&subsystem](const char* tag) { return subsystem == tag; });
}

const std::vector<std::string>& RegisteredMetricNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>(std::begin(kMetricNames), std::end(kMetricNames));
  return *names;
}

const std::vector<std::string>& RegisteredJournalEvents() {
  static const std::vector<std::string>* events =
      new std::vector<std::string>(std::begin(kJournalEvents), std::end(kJournalEvents));
  return *events;
}

}  // namespace obs
}  // namespace t10
