#include "src/core/pass/graph_partition.h"

#include "src/core/partition.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/verify/cluster_checks.h"

namespace t10 {

PassResult GraphPartitionPass::Run(CompilationContext& ctx) {
  if (ctx.cluster == nullptr) {
    return PassResult::Continue();  // Single-chip compile: nothing to split.
  }
  ctx.partition = PartitionGraph(*ctx.graph, *ctx.cluster);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetGauge("cluster.partition.stages")
      .Set(static_cast<double>(ctx.partition.num_stages));
  metrics.GetGauge("cluster.partition.boundary_bytes")
      .Set(static_cast<double>(ctx.partition.BoundaryBytes()));
  if (!ctx.partition.feasible) {
    // Not a warning: the caller gets the reason in the result, and a chip
    // count search (CompileOnFewestChips) expects to start infeasible.
    T10_LOG(Info) << "graph partition infeasible: " << ctx.partition.reason;
    ctx.model.fits = false;
    return PassResult::Stop();
  }
  return PassResult::Continue();
}

verify::VerifyResult GraphPartitionPass::Verify(const CompilationContext& ctx) const {
  if (ctx.cluster == nullptr || !ctx.partition.feasible) {
    return {};
  }
  return verify::VerifyPartition(ctx.partition, *ctx.graph, *ctx.cluster);
}

}  // namespace t10
