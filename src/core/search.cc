#include "src/core/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/math_util.h"

namespace t10 {
namespace {

// Spatial factor candidates for one axis: every count in [1, min(L, C)]
// whose per-axis padding waste already violates the threshold is dropped
// (a necessary condition, since per-axis ratios multiply into the total).
std::vector<std::int64_t> AxisFactorCandidates(std::int64_t length, std::int64_t max_cores,
                                               double padding_threshold) {
  std::vector<std::int64_t> out;
  const std::int64_t limit = std::min(length, max_cores);
  for (std::int64_t s = 1; s <= limit; ++s) {
    const std::int64_t padded = CeilDiv(length, s) * s;
    if (static_cast<double>(length) / static_cast<double>(padded) >= padding_threshold) {
      out.push_back(s);
    }
  }
  return out;
}

// All temporal factor vectors for one tensor: all-ones, plus every way of
// splitting at most `max_dims` (0, 1 or 2) non-compound dims by divisors of
// the sharing count P that also tile the sub-tensor exactly.
std::vector<std::vector<std::int64_t>> TemporalOptions(const TensorRef& tensor,
                                                       const std::vector<std::int64_t>& sub_shape,
                                                       std::int64_t share_cores, int max_dims) {
  const std::size_t rank = tensor.dims.size();
  std::vector<std::vector<std::int64_t>> options;
  options.emplace_back(rank, 1);  // Full replication across rings of one core.
  if (max_dims == 0 || share_cores <= 1 || rank == 0) {
    return options;
  }
  for (std::size_t d = 0; d < rank; ++d) {
    if (tensor.dims[d].compound()) {
      continue;
    }
    for (std::int64_t f : Divisors(Gcd(share_cores, sub_shape[d]))) {
      if (f == 1) {
        continue;
      }
      std::vector<std::int64_t> ft(rank, 1);
      ft[d] = f;
      options.push_back(ft);
      if (max_dims >= 2) {
        for (std::size_t d2 = d + 1; d2 < rank; ++d2) {
          if (tensor.dims[d2].compound()) {
            continue;
          }
          for (std::int64_t f2 : Divisors(Gcd(share_cores / f, sub_shape[d2]))) {
            if (f2 == 1) {
              continue;
            }
            std::vector<std::int64_t> ft2 = ft;
            ft2[d2] = f2;
            options.push_back(ft2);
          }
        }
      }
    }
  }
  return options;
}

// log10 of the unconstrained configuration count: every F_op value per axis,
// every divisor-shaped temporal factor per tensor dim, every rp divisor per
// axis (the quantity Fig 18 reports as "Complete Space").
double EstimateCompleteSpace(const Operator& op, const ChipSpec& chip) {
  double log10_space = 0.0;
  const std::int64_t cores = chip.num_cores;
  for (const Axis& axis : op.axes()) {
    log10_space += std::log10(static_cast<double>(std::min(axis.length, cores)));  // F_op.
    log10_space += std::log10(static_cast<double>(Divisors(axis.length).size()));  // rp.
  }
  for (const TensorRef& input : op.inputs()) {
    for (const DimRef& dim : input.dims) {
      const std::int64_t len = DimLength(op.axes(), dim);
      log10_space += std::log10(static_cast<double>(Divisors(len).size()));  // f_t.
    }
  }
  return log10_space;
}

// A fixed whole-chip plan for vendor ops: greedily spread parallel axes over
// the cores, no rotation.
ExecutionPlan VendorPlan(const Operator& op, const ChipSpec& chip) {
  std::vector<std::int64_t> fop(op.axes().size(), 1);
  std::int64_t remaining = chip.num_cores;
  for (std::size_t a = 0; a < op.axes().size(); ++a) {
    const std::int64_t s = LargestDivisorAtMost(op.axes()[a].length,
                                                std::max<std::int64_t>(remaining, 1));
    fop[a] = std::min(s, std::max<std::int64_t>(remaining, 1));
    remaining /= fop[a];
  }
  std::vector<std::vector<std::int64_t>> temporal;
  for (const TensorRef& input : op.inputs()) {
    temporal.emplace_back(input.dims.size(), 1);
  }
  temporal.emplace_back(op.output().dims.size(), 1);
  auto plan = ExecutionPlan::Create(op, fop, temporal);
  T10_CHECK(plan.has_value()) << "vendor plan must be valid for " << op.name();
  return *plan;
}

// A visited F_op and the temporal options of each of its inputs, stored once
// and shared by every surviving candidate of that F_op.
struct FopOptions {
  std::vector<std::int64_t> fop;
  std::vector<std::vector<std::vector<std::int64_t>>> per_input;  // [input][option] = f_t.
};

// A candidate that passed every filter, kept compactly: its predicted
// metrics and what rebuilds its plan. Only frontier members are rebuilt.
struct Survivor {
  PlanMetrics predicted;
  std::size_t fop_id = 0;   // Index into EnumerationState::fops.
  std::size_t options = 0;  // Offset of its per-input option indices in
                            // EnumerationState::survivor_options.
};

struct EnumerationState {
  const Operator* op = nullptr;
  const ChipSpec* chip = nullptr;
  const TimingSource* cost = nullptr;
  const SearchConstraints* constraints = nullptr;
  std::vector<std::vector<std::int64_t>> axis_candidates;
  std::vector<std::int64_t> suffix_max_product;
  std::int64_t min_cores = 1;
  std::vector<std::int64_t> fop;
  // The candidate being costed: its temporal factors (output last, all
  // ones), the index of each input's option, and the plan rebuilt in place
  // from them. Reused for every candidate, so costing allocates nothing.
  std::vector<std::vector<std::int64_t>> chosen;
  std::vector<std::size_t> chosen_option;
  ExecutionPlan scratch;
  std::vector<FopOptions> fops;
  std::vector<Survivor> survivors;
  std::vector<std::size_t> survivor_options;  // Per survivor, one index per input.
  std::int64_t evaluations = 0;  // Enumeration attempts (budget control).
  std::int64_t fop_count = 0;
  // Phase wall-time split, accumulated per evaluation and published once per
  // search (compiler.phase.{filtering,cost_eval}.seconds).
  double filter_seconds = 0.0;
  double cost_eval_seconds = 0.0;
};

void EvaluateFop(EnumerationState& state) {
  const Operator& op = *state.op;
  ++state.fop_count;

  // Derived sub-shapes and sharing counts, needed to enumerate f_t.
  std::vector<std::int64_t> slice(op.axes().size());
  double padding_ratio = 1.0;
  for (std::size_t a = 0; a < op.axes().size(); ++a) {
    slice[a] = CeilDiv(op.axes()[a].length, state.fop[a]);
    padding_ratio *= static_cast<double>(op.axes()[a].length) /
                     static_cast<double>(slice[a] * state.fop[a]);
  }
  if (padding_ratio < state.constraints->padding_threshold) {
    return;
  }

  const std::size_t fop_id = state.fops.size();
  FopOptions& entry = state.fops.emplace_back();
  entry.fop = state.fop;
  for (const TensorRef& input : op.inputs()) {
    std::vector<std::int64_t> sub_shape;
    for (const DimRef& dim : input.dims) {
      std::int64_t sub = slice[dim.axis];
      if (dim.compound()) {
        sub += slice[dim.minor_axis] - 1;
      }
      sub_shape.push_back(sub);
    }
    std::int64_t share = 1;
    for (std::size_t a = 0; a < op.axes().size(); ++a) {
      if (!Operator::TensorUsesAxis(input, static_cast<int>(a))) {
        share *= state.fop[a];
      }
    }
    entry.per_input.push_back(TemporalOptions(input, sub_shape, share,
                                              state.constraints->max_rotating_dims));
  }

  // Cartesian product of per-input temporal options.
  auto recurse = [&](auto&& self, std::size_t input_index) -> void {
    if (state.evaluations >= state.constraints->max_evaluations) {
      return;
    }
    if (input_index == op.inputs().size()) {
      ++state.evaluations;
      const auto t0 = std::chrono::steady_clock::now();
      const bool filtered = !state.scratch.Rebuild(op, state.fop, state.chosen) ||
                            state.scratch.PerCoreBytes(*state.chip) > state.chip->core_memory_bytes;
      const auto t1 = std::chrono::steady_clock::now();
      state.filter_seconds += std::chrono::duration<double>(t1 - t0).count();
      if (filtered) {
        return;
      }
      state.survivors.push_back(Survivor{state.scratch.Evaluate(*state.cost, *state.chip), fop_id,
                                         state.survivor_options.size()});
      state.survivor_options.insert(state.survivor_options.end(), state.chosen_option.begin(),
                                    state.chosen_option.end());
      state.cost_eval_seconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
      return;
    }
    const auto& options = entry.per_input[input_index];
    for (std::size_t o = 0; o < options.size(); ++o) {
      state.chosen[input_index] = options[o];
      state.chosen_option[input_index] = o;
      self(self, input_index + 1);
    }
  };
  recurse(recurse, 0);
}

void EnumerateFop(EnumerationState& state, std::size_t axis, std::int64_t product) {
  if (state.evaluations >= state.constraints->max_evaluations) {
    return;
  }
  if (axis == state.axis_candidates.size()) {
    if (product >= state.min_cores) {
      EvaluateFop(state);
    }
    return;
  }
  const std::int64_t cores = state.chip->num_cores;
  for (std::int64_t s : state.axis_candidates[axis]) {
    const std::int64_t next = product * s;
    if (next > cores) {
      break;  // Candidates ascend; all further values overflow the chip.
    }
    if (next * state.suffix_max_product[axis + 1] < state.min_cores) {
      continue;  // Even maxing the remaining axes cannot reach the band.
    }
    state.fop[axis] = s;
    EnumerateFop(state, axis + 1, next);
  }
  state.fop[axis] = 1;
}

// Sorts by (per-core bytes, time) and keeps each item faster than every one
// before it: the Pareto frontier, memory ascending. The one frontier routine,
// shared by ParetoFrontier() and the search's compact survivors, so both pick
// the same plans, exact ties included.
template <typename T>
std::vector<T> Frontier(std::vector<T> items) {
  std::sort(items.begin(), items.end(), [](const T& x, const T& y) {
    if (x.predicted.per_core_bytes != y.predicted.per_core_bytes) {
      return x.predicted.per_core_bytes < y.predicted.per_core_bytes;
    }
    return x.predicted.total_seconds() < y.predicted.total_seconds();
  });
  std::vector<T> frontier;
  double best_time = std::numeric_limits<double>::infinity();
  for (T& item : items) {
    if (item.predicted.total_seconds() < best_time) {
      best_time = item.predicted.total_seconds();
      frontier.push_back(std::move(item));
    }
  }
  return frontier;
}

// Reduces the search's survivors to the frontier and builds a full plan for
// each frontier member only.
std::vector<PlanCandidate> FrontierPlans(EnumerationState& state) {
  const Operator& op = *state.op;
  std::vector<std::vector<std::int64_t>> temporal = state.chosen;  // Output entry: all ones.
  const std::vector<Survivor> frontier = Frontier(std::move(state.survivors));
  std::vector<PlanCandidate> plans;
  plans.reserve(frontier.size());
  for (const Survivor& survivor : frontier) {
    const FopOptions& entry = state.fops[survivor.fop_id];
    for (std::size_t i = 0; i < op.inputs().size(); ++i) {
      temporal[i] = entry.per_input[i][state.survivor_options[survivor.options + i]];
    }
    std::optional<ExecutionPlan> plan = ExecutionPlan::Create(op, entry.fop, temporal);
    T10_CHECK(plan.has_value()) << op.name() << ": a costed candidate failed to rebuild";
    plans.push_back(PlanCandidate{*std::move(plan), survivor.predicted});
  }
  return plans;
}

}  // namespace

std::vector<PlanCandidate> ParetoFrontier(std::vector<PlanCandidate> candidates) {
  return Frontier(std::move(candidates));
}

IntraOpResult SearchOperatorPlans(const Operator& op, const ChipSpec& chip,
                                  const TimingSource& cost_model,
                                  const SearchConstraints& constraints) {
  T10_CHECK(constraints.max_rotating_dims >= 0 && constraints.max_rotating_dims <= 2)
      << "max_rotating_dims must be 0, 1 or 2, got " << constraints.max_rotating_dims;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("compiler.search.searches").Increment();
  IntraOpResult result;
  result.complete_space_log10 = EstimateCompleteSpace(op, chip);

  if (op.kind() == OpKind::kVendor) {
    ExecutionPlan plan = VendorPlan(op, chip);
    PlanMetrics metrics = plan.Evaluate(cost_model, chip);
    result.pareto.push_back(PlanCandidate{std::move(plan), metrics});
    result.filtered_count = 1;
    result.fop_count = 1;
    return result;
  }

  SearchConstraints active = constraints;
  for (int attempt = 0; attempt < 4; ++attempt) {
    EnumerationState state;
    state.op = &op;
    state.chip = &chip;
    state.cost = &cost_model;
    state.constraints = &active;
    state.fop.assign(op.axes().size(), 1);
    state.chosen.resize(op.inputs().size());
    state.chosen.emplace_back(op.output().dims.size(), 1);
    state.chosen_option.resize(op.inputs().size());

    double achievable = 1.0;
    for (const Axis& axis : op.axes()) {
      achievable *= static_cast<double>(std::min(axis.length, static_cast<std::int64_t>(chip.num_cores)));
      achievable = std::min(achievable, static_cast<double>(chip.num_cores));
    }
    state.min_cores = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(active.parallelism_fraction * achievable));

    for (const Axis& axis : op.axes()) {
      state.axis_candidates.push_back(
          AxisFactorCandidates(axis.length, chip.num_cores, active.padding_threshold));
    }
    state.suffix_max_product.assign(op.axes().size() + 1, 1);
    for (std::size_t a = op.axes().size(); a-- > 0;) {
      const std::int64_t axis_max = state.axis_candidates[a].back();
      const std::int64_t tail = state.suffix_max_product[a + 1];
      state.suffix_max_product[a] =
          tail > chip.num_cores / std::max<std::int64_t>(axis_max, 1) ? chip.num_cores + 1
                                                                      : tail * axis_max;
    }

    const auto enum_start = std::chrono::steady_clock::now();
    EnumerateFop(state, 0, 1);
    const double enum_total =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - enum_start).count();
    // The filtered space is the set of *valid* plans that passed every
    // rule-based constraint and were costed (Fig 18's middle bar);
    // enumeration attempts that fail an alignment/divisibility rule are not
    // plans.
    result.filtered_count = static_cast<std::int64_t>(state.survivors.size());
    result.fop_count = state.fop_count;

    metrics.GetCounter("compiler.search.evaluations").Add(state.evaluations);
    metrics.GetCounter("compiler.search.fop_visited").Add(state.fop_count);
    metrics.GetCounter("compiler.search.filtered_plans").Add(result.filtered_count);
    metrics.GetHistogram("compiler.phase.filtering.seconds").Record(state.filter_seconds);
    metrics.GetHistogram("compiler.phase.cost_eval.seconds").Record(state.cost_eval_seconds);
    // Pure enumeration time = walking the F_op/f_t tree minus the per-plan
    // filter and cost work accounted above.
    metrics.GetHistogram("compiler.phase.enumeration.seconds")
        .Record(std::max(0.0, enum_total - state.filter_seconds - state.cost_eval_seconds));

    if (!state.survivors.empty()) {
      obs::ScopedTimer pareto_timer("compiler.phase.pareto.seconds");
      result.pareto = FrontierPlans(state);
      metrics.GetCounter("compiler.search.pareto_plans")
          .Add(static_cast<std::int64_t>(result.pareto.size()));
      return result;
    }
    // No plan satisfied the constraints (tiny or awkwardly-shaped operator):
    // relax and retry, as a user would (paper §6.3 studies this knob).
    metrics.GetCounter("compiler.search.relaxations").Increment();
    T10_LOG(Info) << op.name() << ": relaxing search constraints (attempt " << attempt + 1 << ")";
    active.parallelism_fraction *= 0.5;
    active.padding_threshold *= 0.8;
  }
  // Even with relaxed constraints nothing fits the per-core memory: the
  // operator is too large for this chip. Callers see an empty frontier.
  T10_LOG(Warning) << "operator " << op.name() << " has no plan fitting "
                   << chip.core_memory_bytes << "B per core";
  return result;
}

}  // namespace t10
