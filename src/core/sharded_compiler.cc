#include "src/core/sharded_compiler.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/core/pass/compilation_context.h"
#include "src/core/pass/graph_partition.h"
#include "src/core/pass/pass.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/sim/machine.h"
#include "src/util/logging.h"

namespace t10 {

double ShardedCompiledModel::TotalSeconds() const {
  double total = partition.handoff_seconds;
  for (const CompiledStage& stage : stages) {
    total += stage.model.TotalSeconds();
  }
  return total;
}

double ShardedCompiledModel::BottleneckSeconds() const {
  double bottleneck = 0.0;
  for (int s = 0; s < num_stages(); ++s) {
    double incoming = 0.0;
    for (const StageBoundary& boundary : partition.boundaries) {
      if (boundary.dst_stage == s) {
        incoming += boundary.transfer_seconds;
      }
    }
    bottleneck = std::max(bottleneck, stages[s].model.TotalSeconds() + incoming);
  }
  return bottleneck;
}

std::int64_t ShardedCompiledModel::MaxStagePeakBytes() const {
  std::int64_t peak = 0;
  for (const CompiledStage& stage : stages) {
    peak = std::max(peak, stage.model.memory_peak_bytes);
  }
  return peak;
}

std::int64_t ShardedCompiledModel::TotalIdleBytes() const {
  std::int64_t total = 0;
  for (const CompiledStage& stage : stages) {
    total += stage.model.idle_bytes_per_core *
             cluster.chips[stage.chip_index].num_cores;
  }
  return total;
}

std::string ShardedCompiledModel::Fingerprint() const {
  std::ostringstream out;
  out << std::hexfloat;
  out << "cluster=" << cluster.name << " topology=" << ClusterTopologyName(cluster.topology)
      << " chips=" << cluster.num_chips() << " link=" << cluster.link.bandwidth << ","
      << cluster.link.latency_seconds << " fits=" << fits << "\n";
  out << "partition=";
  for (const auto& [first, last] : partition.stage_ops) {
    out << first << "-" << last << ";";
  }
  out << "\nboundaries=";
  for (const StageBoundary& b : partition.boundaries) {
    out << b.tensor << ":" << b.bytes << ":" << b.src_stage << ">" << b.dst_stage << ":"
        << b.hops << ":" << b.transfer_seconds << ";";
  }
  out << "\n";
  for (const CompiledStage& stage : stages) {
    out << "stage chip=" << stage.chip_index << " interchip=" << stage.transfer.interchip_bytes
        << "," << stage.transfer.interchip_seconds << "\n";
    out << stage.model.Fingerprint();
  }
  return out.str();
}

ShardedCompiler::ShardedCompiler(const ClusterSpec& cluster, CompileOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  T10_CHECK_GE(cluster_.num_chips(), 1);
}

std::vector<std::string> ShardedCompiler::PassNames() {
  std::vector<std::string> names = {pass_names::kGraphPartition};
  for (std::string& name : Compiler::PassNames()) {
    names.push_back(std::move(name));
  }
  return names;
}

ShardedCompiledModel ShardedCompiler::Compile(const Graph& graph) {
  return CompileStages(graph, /*replan=*/nullptr, /*previous=*/nullptr);
}

ShardedCompiledModel ShardedCompiler::RecompileDegraded(const Graph& graph,
                                                        ShardedCompiledModel& previous,
                                                        const DegradedRepartition& replan) {
  return CompileStages(graph, &replan, &previous);
}

ShardedCompiledModel ShardedCompiler::CompileStages(const Graph& graph,
                                                    const DegradedRepartition* replan,
                                                    ShardedCompiledModel* previous) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter(previous == nullptr ? "cluster.compile.count" : "cluster.recompile.count")
      .Increment();
  obs::Span compile_span = obs::StartSpan(obs::TraceContext(), "cluster.compile",
                                          &metrics.GetHistogram("cluster.compile.seconds"));

  ShardedCompiledModel result;
  result.model_name = graph.name();
  result.cluster = cluster_;
  std::vector<int> stage_chips;
  if (replan != nullptr) {
    result.partition = replan->partition;
    stage_chips = replan->stage_chips;
  } else {
    // The partition runs as a real pass so it gets the standard per-pass
    // metrics, span and Verify() treatment.
    CompilerResources partition_resources(cluster_.chips.front(), options_);
    CompilationContext ctx;
    ctx.graph = &graph;
    ctx.resources = &partition_resources;
    ctx.cluster = &cluster_;
    ctx.model.model_name = graph.name();
    PassManager partitioner;
    partitioner.AddPass(std::make_unique<GraphPartitionPass>());
    partitioner.Run(ctx);
    result.partition = std::move(ctx.partition);
    stage_chips.resize(static_cast<std::size_t>(result.partition.num_stages));
    std::iota(stage_chips.begin(), stage_chips.end(), 0);  // Stage s runs on chip s.
  }
  if (!result.partition.feasible) {
    result.fits = false;
    result.unfit_reason = result.partition.reason;
    return result;
  }

  int reused = 0;
  for (int s = 0; s < result.partition.num_stages; ++s) {
    const int chip = stage_chips[static_cast<std::size_t>(s)];
    const std::pair<int, int> range = result.partition.stage_ops[static_cast<std::size_t>(s)];
    // A previous stage that compiled exactly this operator range for exactly
    // this chip is still valid — the cut moved around it, not through it.
    CompiledStage stage;
    bool from_previous = false;
    for (int t = 0; previous != nullptr && t < previous->num_stages(); ++t) {
      CompiledStage& candidate = previous->stages[static_cast<std::size_t>(t)];
      if (candidate.chip_index == chip && candidate.graph != nullptr &&
          previous->partition.stage_ops[static_cast<std::size_t>(t)] == range) {
        stage = std::move(candidate);
        stage.outgoing.clear();
        stage.transfer = PlanMetrics{};
        from_previous = true;
        ++reused;
        break;
      }
    }
    if (!from_previous) {
      stage.chip_index = chip;
      stage.graph = std::make_unique<Graph>(BuildStageGraph(graph, result.partition, s));
      Compiler compiler(cluster_.chips[static_cast<std::size_t>(chip)], options_);
      stage.model = compiler.Compile(*stage.graph);
    }

    stage.outgoing = result.partition.OutgoingBoundaries(s);
    for (const StageBoundary& boundary : stage.outgoing) {
      stage.transfer.interchip_bytes += boundary.bytes;
      stage.transfer.interchip_seconds += boundary.transfer_seconds;
    }
    metrics.GetCounter("cluster.transfer.bytes").Add(stage.transfer.interchip_bytes);
    metrics.GetHistogram("cluster.transfer.seconds").Record(stage.transfer.interchip_seconds);

    const bool stage_fits = stage.model.fits;
    result.stages.push_back(std::move(stage));
    if (!stage_fits) {
      result.fits = false;
      std::ostringstream reason;
      reason << "stage " << s << " (ops " << range.first << ".." << range.second
             << ") does not fit chip " << cluster_.chips[static_cast<std::size_t>(chip)].name;
      result.unfit_reason = reason.str();
      return result;
    }
  }
  metrics.GetGauge("cluster.compile.stages").Set(static_cast<double>(result.num_stages()));
  if (previous != nullptr) {
    metrics.GetGauge("cluster.recompile.reused_stages").Set(static_cast<double>(reused));
  }
  return result;
}

ShardedCompiledModel CompileOnFewestChips(const Graph& graph, const ChipSpec& chip,
                                          int max_chips) {
  T10_CHECK_GE(max_chips, 1);
  ShardedCompiledModel model;
  for (int n = 1; n <= max_chips; ++n) {
    model = ShardedCompiler(ClusterSpec::Homogeneous(chip, n)).Compile(graph);
    if (model.fits) {
      break;
    }
  }
  return model;
}

StatusOr<double> SimulateBoundaryTransfers(const ShardedCompiledModel& model) {
  T10_CHECK(model.fits) << "cannot simulate boundaries of an unfit model";
  std::map<int, std::unique_ptr<Machine>> machines;
  const auto machine = [&](int chip) -> Machine& {
    auto it = machines.find(chip);
    if (it == machines.end()) {
      it = machines.emplace(chip, std::make_unique<Machine>(model.cluster.chips[chip])).first;
    }
    return *it->second;
  };
  double seconds = 0.0;
  int index = 0;
  for (const StageBoundary& boundary : model.partition.boundaries) {
    Machine& src = machine(model.stages[boundary.src_stage].chip_index);
    Machine& dst = machine(model.stages[boundary.dst_stage].chip_index);
    InterChipChannel channel(model.cluster.link.bandwidth, model.cluster.link.latency_seconds,
                             boundary.hops);
    // Chunk the tensor so one chunk fits comfortably in a single core's
    // scratchpad on both endpoints.
    const std::int64_t chunk_limit = std::min(src.spec().core_memory_bytes,
                                              dst.spec().core_memory_bytes) /
                                     2;
    T10_CHECK_GT(chunk_limit, 0);
    for (std::int64_t pos = 0; pos < boundary.bytes; pos += chunk_limit) {
      const std::int64_t len = std::min(chunk_limit, boundary.bytes - pos);
      StatusOr<BufferHandle> from = src.Allocate(0, len);
      T10_RETURN_IF_ERROR(from.status());
      StatusOr<BufferHandle> to = dst.Allocate(0, len);
      if (!to.ok()) {
        src.Free(*from);
        return to.status();
      }
      std::byte* payload = src.Data(*from);
      for (std::int64_t j = 0; j < len; ++j) {
        payload[j] = static_cast<std::byte>((index * 131 + (pos + j) * 7 + 13) & 0xff);
      }
      const Status transferred = channel.Transfer(src, *from, dst, *to);
      const bool identical =
          transferred.ok() &&
          std::memcmp(src.Data(*from), dst.Data(*to), static_cast<std::size_t>(len)) == 0;
      src.Free(*from);
      dst.Free(*to);
      T10_RETURN_IF_ERROR(transferred);
      if (!identical) {
        return DataLossError("boundary tensor '" + boundary.tensor +
                             "' arrived corrupted over the inter-chip channel");
      }
    }
    seconds += channel.seconds();
    ++index;
  }
  return seconds;
}

}  // namespace t10
