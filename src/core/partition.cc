#include "src/core/partition.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <tuple>

#include "src/util/logging.h"

namespace t10 {
namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

// Analytic single-op estimate on one chip: compute at peak plus moving the
// operands once across the aggregate inter-core fabric. Deliberately crude —
// it ranks candidate cuts; the compiled stage supplies the real numbers.
double OpSeconds(const Operator& op, const ChipSpec& chip) {
  T10_CHECK_GT(chip.TotalFlops(), 0.0);
  T10_CHECK_GT(chip.link_bandwidth, 0.0);
  const double compute = op.Flops() / chip.TotalFlops();
  const double fabric_bytes = static_cast<double>(op.InputBytes() + op.OutputBytes());
  return compute + fabric_bytes / (chip.link_bandwidth * chip.num_cores);
}

// Resident-byte estimate of every contiguous op range on one chip:
// resident[a][b - a - 1] covers ops [a, b) and is every weight any of them
// consumes (idle residency) plus the largest single-op working set (active
// residency). A coarse gate against grossly overweight stages; the memory
// planner makes the binding decision per stage. Built once per partition:
// for each `a`, sweeping `b` stamps each weight as its first consumer in
// the range enters, so the table costs one pass over the weight edges per
// `a` instead of a rescan of every tensor per range.
std::vector<std::vector<std::int64_t>> ResidentBytesTable(const Graph& graph) {
  const int n = graph.num_ops();
  std::vector<std::int64_t> weight_bytes;
  std::vector<std::vector<int>> op_weights(n);  // Op -> the weights it consumes.
  for (const auto& [name, info] : graph.tensors()) {
    if (!info.is_weight) {
      continue;
    }
    for (const int consumer : info.consumers) {
      op_weights[consumer].push_back(static_cast<int>(weight_bytes.size()));
    }
    weight_bytes.push_back(info.bytes);
  }
  std::vector<std::int64_t> op_working(n);
  for (int i = 0; i < n; ++i) {
    op_working[i] = graph.op(i).InputBytes() + graph.op(i).OutputBytes();
  }
  std::vector<std::vector<std::int64_t>> resident(n);
  std::vector<int> stamp(weight_bytes.size(), -1);
  for (int a = 0; a < n; ++a) {
    resident[a].resize(n - a);
    std::int64_t weights = 0;
    std::int64_t working = 0;
    for (int i = a; i < n; ++i) {
      for (const int w : op_weights[i]) {
        if (stamp[w] != a) {
          stamp[w] = a;
          weights += weight_bytes[w];
        }
      }
      working = std::max(working, op_working[i]);
      resident[a][i - a] = weights + working;
    }
  }
  return resident;
}

}  // namespace

std::int64_t GraphPartitionResult::BoundaryBytes() const {
  std::int64_t total = 0;
  for (const StageBoundary& b : boundaries) {
    total += b.bytes;
  }
  return total;
}

std::vector<StageBoundary> GraphPartitionResult::OutgoingBoundaries(int stage) const {
  std::vector<StageBoundary> out;
  for (const StageBoundary& b : boundaries) {
    if (b.src_stage == stage) {
      out.push_back(b);
    }
  }
  return out;
}

GraphPartitionResult PartitionGraph(const Graph& graph, const ClusterSpec& cluster) {
  GraphPartitionResult result;
  const int n = graph.num_ops();
  if (n == 0) {
    result.reason = "graph '" + graph.name() + "' has no operators";
    return result;
  }
  T10_CHECK_GE(cluster.num_chips(), 1);
  const int stages = std::min(cluster.num_chips(), n);
  result.num_stages = stages;

  // cut_bytes[a]: bytes of produced tensors crossing a cut before op `a`
  // (produced earlier, still consumed at or after `a`). Weights never cross
  // — they are resident on their consuming stage.
  std::vector<std::int64_t> cut_bytes(n + 1, 0);
  for (const auto& [name, info] : graph.tensors()) {
    if (info.producer < 0 || info.consumers.empty()) {
      continue;
    }
    const int last = *std::max_element(info.consumers.begin(), info.consumers.end());
    for (int a = info.producer + 1; a <= last; ++a) {
      cut_bytes[a] += info.bytes;
    }
  }

  // Stage s covering ops [a, b-1] costs its ops on chips[s] plus the link
  // time of its incoming cut (charged from the upstream neighbor; hop
  // distance per the cluster topology).
  const auto stage_cost = [&](int s, int a, int b) {
    double cost = 0.0;
    for (int i = a; i < b; ++i) {
      cost += OpSeconds(graph.op(i), cluster.chips[s]);
    }
    if (s > 0 && cut_bytes[a] > 0) {
      cost += cluster.TransferSeconds(s - 1, s, cut_bytes[a]);
    }
    return cost;
  };
  const std::vector<std::vector<std::int64_t>> resident = ResidentBytesTable(graph);
  const auto stage_fits = [&](int s, int a, int b) {
    return resident[a][b - a - 1] <= cluster.chips[s].TotalMemoryBytes();
  };

  // dp[s][b]: best achievable bottleneck with stages 0..s covering ops
  // [0, b). Each stage takes at least one op. Ties keep the earliest cut —
  // iteration order makes the result deterministic.
  std::vector<std::vector<double>> dp(stages, std::vector<double>(n + 1, kInfeasible));
  std::vector<std::vector<int>> choice(stages, std::vector<int>(n + 1, -1));
  for (int b = 1; b <= n - (stages - 1); ++b) {
    if (stage_fits(0, 0, b)) {
      dp[0][b] = stage_cost(0, 0, b);
      choice[0][b] = 0;
    }
  }
  for (int s = 1; s < stages; ++s) {
    for (int b = s + 1; b <= n - (stages - 1 - s); ++b) {
      for (int a = s; a < b; ++a) {
        if (dp[s - 1][a] == kInfeasible || !stage_fits(s, a, b)) {
          continue;
        }
        const double bottleneck = std::max(dp[s - 1][a], stage_cost(s, a, b));
        if (bottleneck < dp[s][b]) {
          dp[s][b] = bottleneck;
          choice[s][b] = a;
        }
      }
    }
  }
  if (dp[stages - 1][n] == kInfeasible) {
    std::ostringstream reason;
    reason << "no contiguous " << stages << "-stage cut of '" << graph.name() << "' ("
           << n << " ops) keeps every stage within its chip's scratchpad on "
           << cluster.name;
    result.reason = reason.str();
    return result;
  }

  result.feasible = true;
  result.bottleneck_seconds = dp[stages - 1][n];
  result.stage_ops.assign(stages, {0, 0});
  int b = n;
  for (int s = stages - 1; s >= 0; --s) {
    const int a = choice[s][b];
    result.stage_ops[s] = {a, b - 1};
    b = a;
  }
  result.stage_of_op.assign(n, 0);
  for (int s = 0; s < stages; ++s) {
    for (int i = result.stage_ops[s].first; i <= result.stage_ops[s].second; ++i) {
      result.stage_of_op[i] = s;
    }
  }

  // Boundary transfer programs: one edge per (producing stage, consuming
  // stage, tensor). graph.tensors() iterates name-sorted, so the final
  // (src, dst, tensor) order is deterministic.
  for (const auto& [name, info] : graph.tensors()) {
    if (info.producer < 0) {
      continue;  // Weights and host inputs reside with their consumers.
    }
    const int src = result.stage_of_op[info.producer];
    std::vector<int> dst_stages;
    for (const int consumer : info.consumers) {
      const int dst = result.stage_of_op[consumer];
      if (dst != src && std::find(dst_stages.begin(), dst_stages.end(), dst) == dst_stages.end()) {
        dst_stages.push_back(dst);
      }
    }
    std::sort(dst_stages.begin(), dst_stages.end());
    for (const int dst : dst_stages) {
      StageBoundary boundary;
      boundary.tensor = name;
      boundary.bytes = info.bytes;
      boundary.src_stage = src;
      boundary.dst_stage = dst;
      boundary.hops = cluster.Hops(src, dst);
      boundary.transfer_seconds = cluster.TransferSeconds(src, dst, info.bytes);
      result.boundaries.push_back(boundary);
      result.handoff_seconds += boundary.transfer_seconds;
    }
  }
  std::sort(result.boundaries.begin(), result.boundaries.end(),
            [](const StageBoundary& x, const StageBoundary& y) {
              return std::tie(x.src_stage, x.dst_stage, x.tensor) <
                     std::tie(y.src_stage, y.dst_stage, y.tensor);
            });

  result.stage_cost_seconds.assign(stages, 0.0);
  result.stage_resident_bytes.assign(stages, 0);
  for (int s = 0; s < stages; ++s) {
    const auto [first, last] = result.stage_ops[s];
    for (int i = first; i <= last; ++i) {
      result.stage_cost_seconds[s] += OpSeconds(graph.op(i), cluster.chips[s]);
    }
    result.stage_resident_bytes[s] = resident[first][last - first];
  }
  for (const StageBoundary& boundary : result.boundaries) {
    result.stage_cost_seconds[boundary.dst_stage] += boundary.transfer_seconds;
  }
  return result;
}

DegradedRepartition RepartitionDegraded(const Graph& graph, const ClusterSpec& cluster,
                                        const std::vector<bool>& chip_down) {
  T10_CHECK_EQ(static_cast<int>(chip_down.size()), cluster.num_chips())
      << "chip_down must mark every chip of " << cluster.name;
  DegradedRepartition result;
  result.survivors = cluster;
  result.survivors.name = cluster.name + ".degraded";
  result.survivors.chips.clear();
  for (int i = 0; i < cluster.num_chips(); ++i) {
    if (!chip_down[static_cast<std::size_t>(i)]) {
      result.survivors.chips.push_back(cluster.chips[static_cast<std::size_t>(i)]);
      result.stage_chips.push_back(i);
    }
  }
  if (result.survivors.chips.empty()) {
    result.partition.reason = "every chip of " + cluster.name + " is down";
    result.stage_chips.clear();
    return result;
  }
  result.partition = PartitionGraph(graph, result.survivors);
  if (!result.partition.feasible) {
    result.stage_chips.clear();
    return result;
  }
  // The DP may use fewer stages than survivors (tiny graphs); keep exactly
  // one surviving chip per stage, in order.
  result.stage_chips.resize(static_cast<std::size_t>(result.partition.num_stages));
  return result;
}

Graph BuildStageGraph(const Graph& graph, const GraphPartitionResult& partition, int stage) {
  T10_CHECK(partition.feasible);
  T10_CHECK_GE(stage, 0);
  T10_CHECK_LT(stage, partition.num_stages);
  Graph sub(graph.name() + ".stage" + std::to_string(stage));
  const auto [first, last] = partition.stage_ops[stage];
  for (int i = first; i <= last; ++i) {
    sub.Add(graph.op(i));
  }
  // Re-mark parent weights; tensors arriving from earlier stages (or the
  // host) stay plain producerless inputs of the subgraph.
  std::vector<std::string> weight_names;
  for (const auto& [name, info] : sub.tensors()) {
    if (info.producer == -1 && graph.HasTensor(name) && graph.tensor(name).is_weight) {
      weight_names.push_back(name);
    }
  }
  for (const std::string& name : weight_names) {
    sub.MarkWeight(name);
  }
  return sub;
}

}  // namespace t10
