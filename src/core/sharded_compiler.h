// Sharded (multi-chip) compilation: one model, N per-chip pass pipelines.
//
// The ShardedCompiler drives the pipeline of pipelines the cluster needs:
// the GraphPartition pass cuts the graph into contiguous per-chip stages,
// each stage compiles through the standard five-pass pipeline against its
// own chip, and the partition's boundary tensors become explicit cross-chip
// transfer programs billed in PlanMetrics' inter-chip fields. The result is one
// ShardedCompiledModel whose Fingerprint() is deterministic across --jobs
// values, exactly like CompiledModel::Fingerprint().
//
// Each CompiledStage owns its stage Graph on the heap: the stage's
// CompiledModel borrows Operator pointers out of that Graph, so the Graph
// must stay put for the model's lifetime (ShardedCompiledModel is movable,
// never copyable).

#ifndef T10_SRC_CORE_SHARDED_COMPILER_H_
#define T10_SRC_CORE_SHARDED_COMPILER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/partition.h"
#include "src/hardware/cluster_spec.h"
#include "src/ir/graph.h"
#include "src/util/status.h"

namespace t10 {

struct CompiledStage {
  int chip_index = -1;
  std::unique_ptr<Graph> graph;  // Owned; `model` borrows its operators.
  CompiledModel model;
  // Transfer program leaving this stage, one entry per boundary tensor.
  std::vector<StageBoundary> outgoing;
  // The link-tier bill of `outgoing` (only the interchip_* fields are set).
  PlanMetrics transfer;
};

struct ShardedCompiledModel {
  std::string model_name;
  bool fits = true;
  std::string unfit_reason;  // Why not, when fits is false.
  ClusterSpec cluster;
  GraphPartitionResult partition;
  std::vector<CompiledStage> stages;

  int num_stages() const { return static_cast<int>(stages.size()); }

  // One-request latency: every stage end to end plus every handoff.
  double TotalSeconds() const;
  // Pipeline throughput bound: the slowest stage including its incoming
  // boundary transfers.
  double BottleneckSeconds() const;
  // Largest per-core memory peak across stages.
  std::int64_t MaxStagePeakBytes() const;
  // Total weight bytes resident across all stage chips.
  std::int64_t TotalIdleBytes() const;

  // Deterministic serialization: cluster identity, the partition (stage
  // ranges + boundary transfer programs, doubles as hexfloat) and every
  // stage's CompiledModel::Fingerprint(). Byte-identical across --jobs
  // values and cold/warm plan caches.
  std::string Fingerprint() const;
};

class ShardedCompiler {
 public:
  explicit ShardedCompiler(const ClusterSpec& cluster, CompileOptions options = {});

  // Partitions and compiles `graph` across the cluster. On an infeasible
  // partition or a stage that does not fit its chip, the result has
  // fits = false and unfit_reason set (already-compiled stages are kept for
  // diagnosis). The returned model borrows nothing from `graph`: every
  // stage owns its subgraph.
  ShardedCompiledModel Compile(const Graph& graph);

  // Elastic recovery: compiles `graph` over `replan`, a cut of the chips of
  // this cluster still up (RepartitionDegraded). Recompiles ONLY the stages
  // whose operator range or chip changed and moves every other compiled
  // stage out of `previous` untouched, so a kept stage still owns the same
  // Graph; the stages it does not keep stay in `previous`. With
  // CompileOptions::plan_cache_dir set, the changed stages warm-start from
  // the on-disk plan cache, which bounds recovery recompile time. `previous`
  // must be a fit compile of the same graph over this cluster. An infeasible
  // `replan` returns fits = false with its reason — the caller browns out
  // instead of crashing.
  ShardedCompiledModel RecompileDegraded(const Graph& graph, ShardedCompiledModel& previous,
                                         const DegradedRepartition& replan);

  const ClusterSpec& cluster() const { return cluster_; }

  // The sharded pipeline's pass names: graph_partition, then the standard
  // per-chip pipeline each stage runs.
  static std::vector<std::string> PassNames();

 private:
  // The path Compile and RecompileDegraded share: cuts the graph (the
  // GraphPartition pass, stage s on chip s) unless `replan` supplies the cut,
  // then compiles stage by stage. Stage s reuses a stage of `previous` (may
  // be null) that compiled exactly its operator range for its chip or else
  // compiles its subgraph, bills its outgoing boundaries, and the loop stops
  // at the first stage that does not fit.
  ShardedCompiledModel CompileStages(const Graph& graph, const DegradedRepartition* replan,
                                     ShardedCompiledModel* previous);

  ClusterSpec cluster_;
  CompileOptions options_;
};

// How many chips a model needs (paper §6.7/§7: full LLMs pipelined across
// chips): compiles `graph` over ClusterSpec::Homogeneous(chip, n) for n = 1,
// 2, ... up to max_chips and returns the first model that fits, so n - 1
// chips do not hold it. An n whose partition is infeasible costs only the
// partition DP. When no n up to max_chips fits, returns the max_chips
// attempt (fits = false, unfit_reason set).
ShardedCompiledModel CompileOnFewestChips(const Graph& graph, const ChipSpec& chip,
                                          int max_chips);

// Byte-level validation of a sharded model's boundary transfer programs:
// builds a Machine per involved chip, pushes a deterministic pattern through
// every boundary over an InterChipChannel (chunked to fit one core's
// scratchpad) and verifies the bytes arrive intact. Returns the simulated
// link seconds. Opt-in — machines are sized by the cluster's chips, so
// callers use it on small chips (tests, t10-serve) rather than full IPUs.
StatusOr<double> SimulateBoundaryTransfers(const ShardedCompiledModel& model);

}  // namespace t10

#endif  // T10_SRC_CORE_SHARDED_COMPILER_H_
