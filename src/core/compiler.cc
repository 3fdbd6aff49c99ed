#include "src/core/compiler.h"

#include <atomic>
#include <cstdint>
#include <sstream>
#include <utility>

#include "src/core/pass/compilation_context.h"
#include "src/core/pass/intra_op_search.h"
#include "src/core/pass/pass.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/util/logging.h"

namespace t10 {

double CompiledModel::TotalSeconds() const {
  double total = 0.0;
  for (const CompiledOp& op : ops) {
    total += op.TotalSeconds();
  }
  return total;
}

double CompiledModel::ComputeSeconds() const {
  double total = 0.0;
  for (const CompiledOp& op : ops) {
    total += op.measured.compute_seconds;
  }
  return total;
}

double CompiledModel::ExchangeSeconds() const {
  double total = 0.0;
  for (const CompiledOp& op : ops) {
    total += op.measured.exchange_seconds + op.measured.epilogue_seconds + op.setup_seconds +
             op.transition_seconds;
  }
  return total;
}

double CompiledModel::SetupSeconds() const {
  double total = 0.0;
  for (const CompiledOp& op : ops) {
    total += op.setup_seconds;
  }
  return total;
}

double CompiledModel::AverageExchangeBandwidth() const {
  // All per-core data movement (rotations, epilogues, setup, transitions)
  // over all per-core transfer time — Fig 14's "average inter-core bandwidth
  // utilized by each core during inter-core data transfers".
  double transfer_seconds = 0.0;
  double bytes = 0.0;
  for (const CompiledOp& op : ops) {
    transfer_seconds += op.measured.exchange_seconds + op.measured.epilogue_seconds +
                        op.setup_seconds + op.transition_seconds;
    bytes += static_cast<double>(op.measured.shift_bytes_per_core + op.setup_bytes +
                                 op.transition_bytes);
  }
  return transfer_seconds > 0.0 ? bytes / transfer_seconds : 0.0;
}

std::string CompiledModel::Fingerprint() const {
  std::ostringstream out;
  out << std::hexfloat;
  const auto metrics = [&out](const PlanMetrics& m) {
    out << m.cores_used << "," << m.steps << "," << m.compute_seconds << ","
        << m.exchange_seconds << "," << m.epilogue_seconds << "," << m.per_core_bytes << ","
        << m.shift_bytes_per_core << "," << m.padding_ratio << ";";
  };
  const auto plan = [&out](const ExecutionPlan& p) {
    out << "fop=";
    for (const std::int64_t f : p.fop()) {
      out << f << ",";
    }
    for (const RTensorPlan& t : p.tensors()) {
      out << "t=";
      for (const std::int64_t f : t.temporal) {
        out << f << ",";
      }
      out << "w=" << t.window_bytes << ";";
    }
  };
  out << "model=" << model_name << " fits=" << fits << " idle=" << idle_bytes_per_core
      << " peak=" << memory_peak_bytes << "\n";
  for (const CompiledOp& op : ops) {
    out << "op" << op.op_index << " setup=" << op.setup_seconds
        << " setup_bytes=" << op.setup_bytes << " transition=" << op.transition_seconds
        << " transition_bytes=" << op.transition_bytes << " space=" << op.complete_space_log10
        << " filtered=" << op.filtered_count << " pareto=" << op.pareto_count << "\n";
    out << "  predicted=";
    metrics(op.predicted);
    out << " measured=";
    metrics(op.measured);
    out << "\n  active ";
    plan(op.active_plan);
    out << "\n  idle ";
    plan(op.idle_plan);
    out << "\n";
  }
  out << "trajectory=";
  for (const ReconcileStep& step : reconcile_trajectory) {
    out << step.idle_bytes_per_core << ":" << step.total_seconds << ":" << step.feasible << ";";
  }
  out << "\n";
  return out.str();
}

Compiler::Compiler(const ChipSpec& chip, CompileOptions options)
    : resources_(std::make_unique<CompilerResources>(chip, std::move(options))) {
  // Pre-register the compiler's counter schema so metrics snapshots always
  // contain the full set (at zero) even when a compile never exercises a
  // path — e.g. a model with all-distinct signatures records no cache hits.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("compiler.cache.hits");
  metrics.GetCounter("compiler.cache.misses");
  metrics.GetCounter("compiler.plan_cache.rebuilds");
  metrics.GetCounter("compiler.plan_cache.rejected");
  metrics.GetCounter("compiler.search.searches");
  metrics.GetCounter("compiler.search.evaluations");
  metrics.GetCounter("compiler.search.fop_visited");
  metrics.GetCounter("compiler.search.filtered_plans");
  metrics.GetCounter("compiler.search.pareto_plans");
  metrics.GetCounter("compiler.search.relaxations");
  metrics.GetCounter("compiler.reconcile.steps");
}

Compiler::~Compiler() = default;

const ChipSpec& Compiler::chip() const { return resources_->chip(); }

const FittedCostModel& Compiler::cost_model() const { return resources_->cost_model(); }

const GroundTruthTiming& Compiler::ground_truth() const { return resources_->truth(); }

int Compiler::num_cached_signatures() const { return resources_->plan_cache().size(); }

std::vector<std::string> Compiler::PassNames() { return BuildCompilerPipeline().PassNames(); }

IntraOpResult Compiler::SearchOp(const Operator& op) { return SearchOneOp(op, *resources_); }

CompiledModel Compiler::Compile(const Graph& graph) { return CompileFrom(graph, ""); }

CompiledModel Compiler::CompileFrom(const Graph& graph, const std::string& start_pass) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("compiler.compiles").Increment();

  CompilationContext ctx;
  ctx.graph = &graph;
  ctx.resources = resources_.get();
  ctx.model.model_name = graph.name();

  // Root one trace per compile on the "compile" lane; each pass run becomes
  // a child span (and the intra-op search's tasks grandchildren on their own
  // per-op lanes). Distinct compiles of one tracer get distinct trace ids.
  // Traced or not, the span times the compile.
  obs::TraceContext root;
  if (resources_->options().tracer != nullptr) {
    static std::atomic<std::uint64_t> next_compile_id{1};
    root = resources_->options().tracer->Root(
        next_compile_id.fetch_add(1, std::memory_order_relaxed), "compile");
  }
  obs::Span compile_span =
      obs::StartSpan(root, "compile", &metrics.GetHistogram("compiler.phase.total.seconds"));
  if (compile_span.active()) {
    compile_span.AddAttr("graph", graph.name());
    if (!start_pass.empty()) {
      compile_span.AddAttr("start_pass", start_pass);
    }
  }
  ctx.trace = compile_span.context();

  const PassManager pipeline = BuildCompilerPipeline();
  pipeline.Run(ctx, start_pass);
  ctx.model.compile_wall_seconds = compile_span.End();
  return std::move(ctx.model);
}

StatusOr<DegradedPlan> ReplanDegraded(const ChipSpec& chip, const Graph& graph,
                                      CompileOptions options) {
  if (!chip.health.degraded()) {
    return FailedPreconditionError("chip '" + chip.name +
                                   "' reports no failed cores or links; nothing to replan");
  }
  DegradedPlan out;
  out.core_map = chip.UsableCoreIds();
  if (out.core_map.empty()) {
    return UnavailableError("no usable core survives the health mask on " + chip.name);
  }
  out.surviving = chip.SurvivingSpec();
  // Restart the pipeline at IntraOpSearch on the surviving spec: the search
  // must re-run against the new topology, while cost-model fitting and plan
  // cache attachment happen lazily as the passes need them.
  Compiler compiler(out.surviving, std::move(options));
  out.model = compiler.CompileFrom(graph, pass_names::kIntraOpSearch);
  if (!out.model.fits) {
    return ResourceExhaustedError("model '" + graph.name() + "' no longer fits " +
                                  out.surviving.name + " (" +
                                  std::to_string(out.surviving.num_cores) +
                                  " surviving cores)");
  }
  return out;
}

}  // namespace t10
