#include "src/core/search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <tuple>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
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

// Calls `visit(d, f, d2, f2)` for each temporal option of one tensor, whose
// spatial fields `tp` holds, but the all-ones one, in option order: every way
// of splitting at most `max_dims` (0, 1 or 2) non-compound dims by divisors
// of the sharing count P that also tile the sub-tensor exactly. Dim d splits f ways and dim d2 > d f2 ways; a
// one-dim split has f2 == 1 and d2 == d. Each option's f and f2 divide their
// sub-tensor lengths and f * f2 divides P, so TemporalWindowBytes() accepts
// every one, with a window of sub_bytes / (f * f2). The one place the option
// rules live: AppendTemporalOptions() derives the options from it and
// CountFopFunnel() counts them.
template <typename Visit>
void ForEachTemporalSplit(const TensorRef& tensor, const RTensorPlan& tp, int max_dims,
                          Visit&& visit) {
  const std::int64_t share_cores = tp.share_cores;
  if (max_dims == 0 || share_cores <= 1) {
    return;
  }
  for (std::size_t d = 0; d < tensor.dims.size(); ++d) {
    if (tensor.dims[d].compound()) {
      continue;
    }
    ForEachDivisor(std::gcd(share_cores, tp.sub_shape[d]), [&](std::int64_t f) {
      if (f == 1) {
        return;
      }
      visit(d, f, d, std::int64_t{1});
      if (max_dims < 2) {
        return;
      }
      for (std::size_t d2 = d + 1; d2 < tensor.dims.size(); ++d2) {
        if (tensor.dims[d2].compound()) {
          continue;
        }
        ForEachDivisor(std::gcd(share_cores / f, tp.sub_shape[d2]), [&](std::int64_t f2) {
          if (f2 != 1) {
            visit(d, f, d2, f2);
          }
        });
      }
    });
  }
}

// The temporal options a tensor gets: the output is never split in time.
int TensorMaxRotatingDims(const FopBase& base, std::size_t tensor, int max_rotating_dims) {
  return tensor + 1 == base.tensors.size() ? 0 : max_rotating_dims;
}

// Appends to `out` every temporal factor vector for one tensor, rank values
// each: all-ones (full replication across rings of one core), then each
// ForEachTemporalSplit() option. Returns how many it appended.
std::size_t AppendTemporalOptions(const TensorRef& tensor, const RTensorPlan& tp, int max_dims,
                                  std::vector<std::int64_t>& out) {
  const std::size_t rank = tensor.dims.size();
  out.insert(out.end(), rank, 1);
  std::size_t count = 1;
  ForEachTemporalSplit(tensor, tp, max_dims,
                       [&](std::size_t d, std::int64_t f, std::size_t d2, std::int64_t f2) {
                         out.insert(out.end(), rank, 1);
                         out[out.size() - rank + d] = f;
                         out[out.size() - rank + d2] *= f2;
                         ++count;
                       });
  return count;
}

// `seconds`, a sum of proven lower bounds on a choice's seconds, less a
// relative slack for the rounding of either side. Both sides sum a few
// non-negative terms, so each is within a few ulps of its exact value; 1e-12
// covers that many times over. The slack also keeps a positive floor
// strictly below the seconds it bounds.
double LessRoundingSlack(double seconds) {
  constexpr double kRoundingSlack = 1e-12;
  return seconds * (1.0 - kRoundingSlack);
}

// A lower bound on the seconds of every choice under an F_op: its epilogue
// plus TimingSource::SplitSecondsFloor() of its SplitFloorShape() for one
// step, as more steps cost no less and shifts cost >= 0.
double SecondsFloorOf(const SubTaskShape& floor_shape, const EpilogueCost& epilogue,
                      const TimingSource& timing) {
  return LessRoundingSlack(epilogue.seconds + timing.SplitSecondsFloor(floor_shape, 1));
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

// A member of the search's running frontier: what the frontier compares, and
// its enumeration position, which breaks exact ties and rebuilds its plan.
// Only frontier members are rebuilt.
struct FrontierMember {
  std::int64_t per_core_bytes = 0;
  double total_seconds = 0.0;
  std::size_t fop = 0;       // Its F_op's index in the attempt's F_op list.
  std::int64_t ordinal = 0;  // Its choice's place among the F_op's choices (NextChoice()).
};

std::int64_t FrontierBytes(const PlanCandidate& c) { return c.predicted.per_core_bytes; }
double FrontierSeconds(const PlanCandidate& c) { return c.predicted.total_seconds(); }
std::int64_t FrontierBytes(const FrontierMember& m) { return m.per_core_bytes; }
double FrontierSeconds(const FrontierMember& m) { return m.total_seconds; }

// Whether `a` was enumerated before `b`. The candidates ParetoFrontier()
// folds carry no position: they arrive in enumeration order.
bool EnumeratedBefore(const PlanCandidate&, const PlanCandidate&) { return false; }
bool EnumeratedBefore(const FrontierMember& a, const FrontierMember& b) {
  return std::tie(a.fop, a.ordinal) < std::tie(b.fop, b.ordinal);
}

// The first member of `frontier` (bytes ascending) with more than `bytes`;
// the one before it, if any, is the fastest with at most `bytes`.
template <typename T>
typename std::vector<T>::iterator FirstAbove(std::vector<T>& frontier, std::int64_t bytes) {
  return std::upper_bound(
      frontier.begin(), frontier.end(), bytes,
      [](std::int64_t b, const T& member) { return b < FrontierBytes(member); });
}

// The seconds of the fastest member of `frontier` with at most `bytes`, or
// +infinity if there is none: the frontier covers (bytes, s), some member
// matching or beating it on both axes, iff this is <= s.
double FastestWithin(std::vector<FrontierMember>& frontier, std::int64_t bytes) {
  const auto above = FirstAbove(frontier, bytes);
  return above == frontier.begin() ? std::numeric_limits<double>::infinity()
                                   : FrontierSeconds(*std::prev(above));
}

// Adds `item` to `frontier`, the Pareto frontier of the items added before
// it: per-core bytes strictly ascending, seconds strictly descending. An item
// that some member matches or beats on both axes is dropped, except that of
// an exact (bytes, seconds) tie the one enumerated first stays, whichever
// arrives first; otherwise the item goes in and the members it dominates go
// out. So the frontier does not depend on the order items arrive in. Returns
// whether it went in. The one frontier routine: ParetoFrontier() and the
// search both fold through it.
template <typename T>
bool InsertIntoFrontier(std::vector<T>& frontier, T item) {
  const std::int64_t bytes = FrontierBytes(item);
  const double seconds = FrontierSeconds(item);
  const auto above = FirstAbove(frontier, bytes);
  if (above != frontier.begin()) {
    T& best = *std::prev(above);  // The fastest member with at most `bytes`.
    if (FrontierSeconds(best) <= seconds) {
      if (FrontierBytes(best) != bytes || FrontierSeconds(best) != seconds ||
          !EnumeratedBefore(item, best)) {
        return false;
      }
      best = std::move(item);  // An exact tie it precedes: the staircase keeps its shape.
      return true;
    }
  }
  // The members it dominates: from the first with at least `bytes` on, while
  // they are no faster.
  const auto first = std::lower_bound(
      frontier.begin(), above, bytes,
      [](const T& member, std::int64_t b) { return FrontierBytes(member) < b; });
  const auto last = std::partition_point(
      first, frontier.end(), [&](const T& member) { return FrontierSeconds(member) >= seconds; });
  if (first == last) {
    frontier.insert(first, std::move(item));
  } else {
    *first = std::move(item);
    frontier.erase(first + 1, last);
  }
  return true;
}

// An F_op with choices that pass the filters, as pass 1 counted it: what
// pass 2 orders, skips or costs it by.
struct PassedFop {
  double seconds_floor = 0.0;     // A lower bound on its choices' seconds.
  std::int64_t corner_bytes = 0;  // The smallest per-core bytes of its passed choices.
  std::size_t fop = 0;            // Its index in the attempt's F_op list.
  std::int64_t choices = 0;       // Its choices before the cap: all, or the first ones.
};

// One chunk of a search's F_op enumeration, walked on its own: its own
// running frontier and counts. Merge() folds chunk k's members into chunk 0's
// state.
struct EnumerationState {
  const Operator* op = nullptr;
  const ChipSpec* chip = nullptr;
  const TimingSource* cost = nullptr;
  const SearchConstraints* constraints = nullptr;
  std::int64_t budget = 0;          // Enumeration attempts allowed.
  FopBase base;                     // The F_op pass 1 counts.
  FopCandidates candidates;         // An F_op whose choices are walked.
  std::vector<std::size_t> choice;  // One option index per tensor.
  std::vector<PassedFop> passed;    // Pass 1's output, pass 2's input.
  std::vector<FrontierMember> frontier;  // Bytes ascending.
  std::int64_t filtered_count = 0;  // Candidates that passed the filters.
  std::int64_t evaluations = 0;     // Enumeration attempts (budget control).
  std::int64_t fop_count = 0;
  std::int64_t fops_dominated = 0;  // F_ops whose cost loop the frontier skipped.
  std::int64_t costed_choices = 0;  // Choices priced by FopCandidates::Metrics().
  // Wall time of pass 1 (compiler.phase.filtering.seconds) and pass 2
  // (compiler.phase.cost_eval.seconds), published once per merge.
  double filtering_seconds = 0.0;
  double cost_eval_seconds = 0.0;
};

// Steps `choice` to the next option per tensor, the last tensor fastest: the
// enumeration order, which decides the frontier's exact ties. Returns false
// after the last choice.
bool NextChoice(const FopCandidates& candidates, std::vector<std::size_t>& choice) {
  for (std::size_t t = choice.size(); t-- > 0;) {
    if (++choice[t] < candidates.num_options(t)) {
      return true;
    }
    choice[t] = 0;
  }
  return false;
}

// Pass 1 on F_op `index` of the attempt: counts its choices (enumeration
// attempts, up to the budget) and those that pass the filters (padding, then
// per-core memory) from its base alone, and keeps it for pass 2 if any pass.
// Every choice is valid (ForEachTemporalSplit()) and the all-replicated one
// holds the most bytes, so when it fits the core every choice passes and the
// corner is CountFopFunnel()'s. Only an F_op whose all-replicated choice
// overflows the core, or the one where the budget runs out, derives its
// options and walks its choices through the filter loop.
void FilterFop(EnumerationState& state, std::size_t index, std::span<const std::int64_t> fop) {
  ++state.fop_count;
  FopBase& base = state.base;
  if (!base.Reset(*state.op, fop) ||
      base.padding_ratio < state.constraints->padding_threshold) {
    return;
  }
  const FopFunnel funnel = CountFopFunnel(base, *state.constraints, *state.chip);
  const std::int64_t choices = std::min(funnel.choices, state.budget - state.evaluations);
  state.evaluations += choices;
  const std::int64_t memory = state.chip->core_memory_bytes;
  if (funnel.corner_bytes > memory) {
    return;  // Not even its smallest choice fits.
  }
  std::int64_t passed = choices;
  std::int64_t corner_bytes = funnel.corner_bytes;
  if (choices < funnel.choices || funnel.replicated_bytes > memory) {
    FopCandidates& candidates = state.candidates;
    candidates.Reset(*state.op, fop, *state.constraints, *state.cost, *state.chip);
    state.choice.assign(candidates.num_tensors(), 0);
    passed = 0;
    corner_bytes = INT64_MAX;
    for (std::int64_t ordinal = 0; ordinal < choices;
         ++ordinal, NextChoice(candidates, state.choice)) {
      const std::int64_t bytes = candidates.PerCoreBytes(state.choice);
      if (bytes <= memory) {
        ++passed;
        corner_bytes = std::min(corner_bytes, bytes);
      }
    }
    if (passed == 0) {
      return;
    }
  }
  state.filtered_count += passed;
  state.passed.push_back(PassedFop{
      SecondsFloorOf(SplitFloorShape(base), Epilogue(base, *state.cost), *state.cost),
      corner_bytes, index, choices});
}

// Pass 2: costs pass 1's F_ops in ascending order of their seconds floor, so
// fast members fill the frontier early. A frontier member that matches or
// beats (bytes, seconds floor) on both axes holds no more bytes than a choice
// of that many bytes and is strictly faster, as the floor is below every
// choice's seconds: the choice is on no frontier, whatever the order. So an
// F_op whose corner (smallest passed bytes, floor) is covered is skipped
// whole, and a kept F_op derives its options and costs only its passed
// choices before the cap that the frontier does not cover at their own
// bytes and the F_op's floor, nor at their own floor (FopCandidates::Floor(),
// which bills the choice's step launches and shifts), by the same argument.
// Each goes in at its enumeration position, so of exact ties the one
// enumerated first stays.
void CostPassedFops(EnumerationState& state, std::span<const std::int64_t> fops) {
  const std::size_t rank = state.op->axes().size();
  std::sort(state.passed.begin(), state.passed.end(), [](const PassedFop& a, const PassedFop& b) {
    return std::tie(a.seconds_floor, a.fop) < std::tie(b.seconds_floor, b.fop);
  });
  FopCandidates& candidates = state.candidates;
  for (const PassedFop& fop : state.passed) {
    if (FastestWithin(state.frontier, fop.corner_bytes) <= fop.seconds_floor) {
      ++state.fops_dominated;
      continue;
    }
    candidates.Reset(*state.op, fops.subspan(fop.fop * rank, rank), *state.constraints,
                     *state.cost, *state.chip);
    state.choice.assign(candidates.num_tensors(), 0);
    for (std::int64_t ordinal = 0; ordinal < fop.choices;
         ++ordinal, NextChoice(candidates, state.choice)) {
      const std::int64_t bytes = candidates.PerCoreBytes(state.choice);
      if (bytes > state.chip->core_memory_bytes) {
        continue;
      }
      const double fastest = FastestWithin(state.frontier, bytes);
      if (fastest <= fop.seconds_floor || fastest <= candidates.Floor(state.choice).seconds) {
        continue;
      }
      ++state.costed_choices;
      const PlanMetrics m = candidates.Metrics(state.choice);
      InsertIntoFrontier(state.frontier,
                         FrontierMember{m.per_core_bytes, m.total_seconds(), fop.fop, ordinal});
    }
  }
}

// Builds a full plan for each frontier member only: its options are derived
// again from its F_op, once per F_op the members share, then the plan is
// created and evaluated.
std::vector<PlanCandidate> FrontierPlans(EnumerationState& state,
                                         std::span<const std::int64_t> fops) {
  const Operator& op = *state.op;
  const std::size_t rank = op.axes().size();
  FopCandidates& candidates = state.candidates;
  std::vector<std::vector<std::int64_t>> temporal(op.inputs().size() + 1);
  std::vector<std::size_t> by_fop(state.frontier.size());
  std::iota(by_fop.begin(), by_fop.end(), std::size_t{0});
  std::stable_sort(by_fop.begin(), by_fop.end(), [&](std::size_t a, std::size_t b) {
    return state.frontier[a].fop < state.frontier[b].fop;
  });
  std::vector<PlanCandidate> plans(state.frontier.size());
  std::vector<std::int64_t> fop;
  std::size_t reset_fop = SIZE_MAX;  // The F_op `candidates` holds.
  for (const std::size_t i : by_fop) {
    const FrontierMember& member = state.frontier[i];
    if (member.fop != reset_fop) {
      reset_fop = member.fop;
      const std::span<const std::int64_t> fop_span = fops.subspan(member.fop * rank, rank);
      fop.assign(fop_span.begin(), fop_span.end());
      const bool kept = candidates.Reset(op, fop, *state.constraints, *state.cost, *state.chip);
      T10_CHECK(kept) << op.name() << ": a costed F_op failed the filters";
    }
    // The member's choice from its ordinal: the last tensor counts fastest.
    std::int64_t ordinal = member.ordinal;
    for (std::size_t t = temporal.size(); t-- > 0;) {
      const auto options = static_cast<std::int64_t>(candidates.num_options(t));
      const std::span<const std::int64_t> ft =
          candidates.temporal(t, static_cast<std::size_t>(ordinal % options));
      temporal[t].assign(ft.begin(), ft.end());
      ordinal /= options;
    }
    std::optional<ExecutionPlan> plan = ExecutionPlan::Create(op, fop, temporal);
    T10_CHECK(plan.has_value()) << op.name() << ": a costed candidate failed to rebuild";
    const PlanMetrics predicted = plan->Evaluate(*state.cost, *state.chip);
    plans[i] = PlanCandidate{*std::move(plan), predicted};
  }
  return plans;
}

}  // namespace

std::vector<PlanCandidate> ParetoFrontier(std::vector<PlanCandidate> candidates) {
  std::vector<PlanCandidate> frontier;
  for (PlanCandidate& candidate : candidates) {
    InsertIntoFrontier(frontier, std::move(candidate));
  }
  return frontier;
}

void ForEachSearchedFop(const Operator& op, const ChipSpec& chip,
                        const SearchConstraints& constraints,
                        const std::function<bool(std::span<const std::int64_t>)>& visit) {
  const std::vector<Axis>& axes = op.axes();
  const std::int64_t cores = chip.num_cores;
  double achievable = 1.0;
  for (const Axis& axis : axes) {
    achievable *= static_cast<double>(std::min(axis.length, cores));
    achievable = std::min(achievable, static_cast<double>(cores));
  }
  const std::int64_t min_cores = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(constraints.parallelism_fraction * achievable));

  std::vector<std::vector<std::int64_t>> axis_candidates;
  for (const Axis& axis : axes) {
    axis_candidates.push_back(
        AxisFactorCandidates(axis.length, cores, constraints.padding_threshold));
  }
  std::vector<std::int64_t> suffix_max_product(axes.size() + 1, 1);
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::int64_t axis_max = axis_candidates[a].back();
    const std::int64_t tail = suffix_max_product[a + 1];
    suffix_max_product[a] =
        tail > cores / std::max<std::int64_t>(axis_max, 1) ? cores + 1 : tail * axis_max;
  }

  std::vector<std::int64_t> fop(axes.size(), 1);
  auto walk = [&](auto&& self, std::size_t axis, std::int64_t product) -> bool {
    if (axis == axes.size()) {
      return product < min_cores || visit(fop);
    }
    for (std::int64_t s : axis_candidates[axis]) {
      const std::int64_t next = product * s;
      if (next > cores) {
        break;  // Candidates ascend; all further values overflow the chip.
      }
      if (next * suffix_max_product[axis + 1] < min_cores) {
        continue;  // Even maxing the remaining axes cannot reach the band.
      }
      fop[axis] = s;
      if (!self(self, axis + 1, next)) {
        return false;
      }
    }
    fop[axis] = 1;
    return true;
  };
  walk(walk, 0, 1);
}

bool FopCandidates::Reset(const Operator& op, std::span<const std::int64_t> fop,
                          const SearchConstraints& constraints, const TimingSource& timing,
                          const ChipSpec& chip) {
  if (!base_.Reset(op, fop) || base_.padding_ratio < constraints.padding_threshold) {
    return false;
  }
  timing_ = &timing;
  chip_ = &chip;
  epilogue_ = Epilogue(base_, timing);
  floor_shape_ = SplitFloorShape(base_);
  temporal_.clear();
  options_.clear();
  tensor_options_.clear();
  option_rotations_.clear();
  for (std::size_t t = 0; t < base_.tensors.size(); ++t) {
    const TensorRef& tensor = Operand(op, t);
    const bool is_output = t + 1 == base_.tensors.size();
    const RTensorPlan& tp = base_.tensors[t];
    const std::size_t rank = tensor.dims.size();
    std::size_t offset = temporal_.size();
    const std::size_t count = AppendTemporalOptions(
        tensor, tp, TensorMaxRotatingDims(base_, t, constraints.max_rotating_dims), temporal_);
    tensor_options_.push_back(options_.size());
    for (std::size_t o = 0; o < count; ++o, offset += rank) {
      Option& option = options_.emplace_back();
      option.temporal = offset;
      const std::span<const std::int64_t> ft(temporal_.data() + offset, rank);
      option.window_bytes = TemporalWindowBytes(tensor, is_output, ft, tp);
      T10_CHECK_GE(option.window_bytes, 0) << op.name() << ": an option breaks an alignment rule";
      option.rotations_begin = option_rotations_.size();
      AppendRotations(tensor, ft, tp, option.window_bytes, option_rotations_);
      option.rotations_end = option_rotations_.size();
      for (std::size_t r = option.rotations_begin; r < option.rotations_end; ++r) {
        const Rotation& rotation = option_rotations_[r];
        const std::int64_t slice = base_.axis_slice[static_cast<std::size_t>(rotation.axis)];
        option.shift_floor += timing.ShiftSecondsFloor(
            slice / rotation.window_len, rotation.window_bytes / rotation.window_len * slice);
      }
    }
  }
  tensor_options_.push_back(options_.size());
  return true;
}

std::span<const std::int64_t> FopCandidates::temporal(std::size_t tensor,
                                                      std::size_t option) const {
  return {temporal_.data() + this->option(tensor, option).temporal,
          Operand(*base_.op, tensor).dims.size()};
}

std::int64_t FopCandidates::PerCoreBytes(std::span<const std::size_t> choice) const {
  std::int64_t bytes = chip_->shift_buffer_bytes;
  for (std::size_t t = 0; t < choice.size(); ++t) {
    bytes += option(t, choice[t]).window_bytes;
  }
  return bytes;
}

void FopCandidates::GatherRotations(std::span<const std::size_t> choice) {
  rotations_.clear();
  for (std::size_t t = 0; t < choice.size(); ++t) {
    const Option& o = option(t, choice[t]);
    rotations_.insert(rotations_.end(), option_rotations_.begin() + o.rotations_begin,
                      option_rotations_.begin() + o.rotations_end);
  }
}

PlanMetrics FopCandidates::Metrics(std::span<const std::size_t> choice) {
  GatherRotations(choice);
  DeriveLoops(base_.axis_slice, rotations_, axis_pace_, loops_);
  return CostPlan(base_, rotations_, axis_pace_, loops_, PerCoreBytes(choice), epilogue_,
                  *timing_);
}

double FopCandidates::SecondsFloor() const {
  return SecondsFloorOf(floor_shape_, epilogue_, *timing_);
}

FopCandidates::ChoiceFloor FopCandidates::Floor(std::span<const std::size_t> choice) {
  GatherRotations(choice);
  ChoiceFloor floor;
  floor.steps = DerivePaces(base_.axis_slice, rotations_, axis_pace_);
  double shifts = 0.0;
  for (std::size_t t = 0; t < choice.size(); ++t) {
    shifts += option(t, choice[t]).shift_floor;
  }
  floor.seconds = LessRoundingSlack(
      epilogue_.seconds + timing_->SplitSecondsFloor(floor_shape_, floor.steps) + shifts);
  return floor;
}

FopFunnel CountFopFunnel(const FopBase& base, const SearchConstraints& constraints,
                         const ChipSpec& chip) {
  FopFunnel funnel{1, chip.shift_buffer_bytes, chip.shift_buffer_bytes};
  for (std::size_t t = 0; t < base.tensors.size(); ++t) {
    const RTensorPlan& tp = base.tensors[t];
    std::int64_t options = 1;   // All ones, the largest window.
    std::int64_t max_ring = 1;  // The smallest window's ring.
    ForEachTemporalSplit(Operand(*base.op, t), tp,
                         TensorMaxRotatingDims(base, t, constraints.max_rotating_dims),
                         [&](std::size_t, std::int64_t f, std::size_t, std::int64_t f2) {
                           ++options;
                           max_ring = std::max(max_ring, f * f2);
                         });
    funnel.choices *= options;
    funnel.corner_bytes += tp.sub_bytes / max_ring;
    funnel.replicated_bytes += tp.sub_bytes;
  }
  return funnel;
}

// Chunks of one search sit side by side and run on different threads: each
// starts on a cache line of its own, so one chunk's per-choice writes do not
// invalidate the line its neighbour reads on every choice.
struct alignas(64) OperatorSearch::Chunk : EnumerationState {};

OperatorSearch::OperatorSearch(const Operator& op, const ChipSpec& chip,
                               const TimingSource& cost_model,
                               const SearchConstraints& constraints)
    : op_(&op), chip_(&chip), cost_model_(&cost_model), active_(constraints) {
  T10_CHECK(constraints.max_rotating_dims >= 0 && constraints.max_rotating_dims <= 2)
      << "max_rotating_dims must be 0, 1 or 2, got " << constraints.max_rotating_dims;
  obs::MetricsRegistry::Global().GetCounter("compiler.search.searches").Increment();
  result_.complete_space_log10 = EstimateCompleteSpace(op, chip);
  if (op.kind() == OpKind::kVendor) {
    ExecutionPlan plan = VendorPlan(op, chip);
    const PlanMetrics predicted = plan.Evaluate(cost_model, chip);
    result_.pareto.push_back(PlanCandidate{std::move(plan), predicted});
    result_.filtered_count = 1;
    result_.fop_count = 1;
    done_ = true;
  }
}

OperatorSearch::~OperatorSearch() = default;
OperatorSearch::OperatorSearch(OperatorSearch&&) noexcept = default;
OperatorSearch& OperatorSearch::operator=(OperatorSearch&&) noexcept = default;

void OperatorSearch::Split(int max_chunks) {
  T10_CHECK(!done_) << op_->name() << ": Split() on a finished search";
  const auto start = std::chrono::steady_clock::now();
  fops_.clear();
  std::size_t count = 0;
  ForEachSearchedFop(*op_, *chip_, active_, [&](std::span<const std::int64_t> fop) {
    fops_.insert(fops_.end(), fop.begin(), fop.end());
    ++count;
    return true;
  });
  collect_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const std::size_t chunks = std::min(static_cast<std::size_t>(std::max(max_chunks, 1)),
                                      std::max<std::size_t>(count, 1));
  chunk_begin_.resize(chunks + 1);
  for (std::size_t k = 0; k <= chunks; ++k) {
    chunk_begin_[k] = count * k / chunks;
  }
  chunks_.resize(chunks);
}

std::int64_t OperatorSearch::chunk_fops(int k) const {
  const auto index = static_cast<std::size_t>(k);
  return static_cast<std::int64_t>(chunk_begin_[index + 1] - chunk_begin_[index]);
}

void OperatorSearch::RunChunk(int k) { Walk(static_cast<std::size_t>(k), active_.max_evaluations); }

void OperatorSearch::Walk(std::size_t k, std::int64_t budget) {
  Chunk& chunk = chunks_[k];
  chunk = Chunk{};
  chunk.op = op_;
  chunk.chip = chip_;
  chunk.cost = cost_model_;
  chunk.constraints = &active_;
  chunk.budget = budget;
  const std::size_t rank = op_->axes().size();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = chunk_begin_[k]; i < chunk_begin_[k + 1] && chunk.evaluations < budget;
       ++i) {
    FilterFop(chunk, i, {fops_.data() + i * rank, rank});
  }
  const auto filtered = std::chrono::steady_clock::now();
  CostPassedFops(chunk, fops_);
  chunk.filtering_seconds = std::chrono::duration<double>(filtered - start).count();
  chunk.cost_eval_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - filtered).count();
}

void OperatorSearch::Merge() {
  T10_CHECK(!done_ && !chunks_.empty()) << op_->name() << ": Merge() without a Split()";
  // The serial walk stops once its evaluations reach the cap: the chunk
  // where the running count gets there is walked again with what is left,
  // and the chunks after it are dropped.
  std::size_t used = chunks_.size();
  std::int64_t evaluations = 0;
  for (std::size_t k = 0; k < chunks_.size(); ++k) {
    const std::int64_t left = active_.max_evaluations - evaluations;
    if (chunks_[k].evaluations >= left) {
      if (chunks_[k].budget != left) {
        Walk(k, left);
      }
      used = k + 1;
      break;
    }
    evaluations += chunks_[k].evaluations;
  }

  // Members carry their enumeration positions, so the fold order does not
  // matter: of exact ties the member enumerated first stays.
  Chunk& merged = chunks_[0];
  for (std::size_t k = 1; k < used; ++k) {
    const Chunk& chunk = chunks_[k];
    for (const FrontierMember& member : chunk.frontier) {
      InsertIntoFrontier(merged.frontier, member);
    }
    merged.filtered_count += chunk.filtered_count;
    merged.evaluations += chunk.evaluations;
    merged.fop_count += chunk.fop_count;
    merged.fops_dominated += chunk.fops_dominated;
    merged.costed_choices += chunk.costed_choices;
    merged.filtering_seconds += chunk.filtering_seconds;
    merged.cost_eval_seconds += chunk.cost_eval_seconds;
  }

  // The filtered space is the set of *valid* plans that passed every
  // rule-based constraint (Fig 18's middle bar), costed or dominated.
  result_.filtered_count = merged.filtered_count;
  result_.fop_count = merged.fop_count;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("compiler.search.evaluations").Add(merged.evaluations);
  metrics.GetCounter("compiler.search.fop_visited").Add(merged.fop_count);
  metrics.GetCounter("compiler.search.filtered_plans").Add(merged.filtered_count);
  metrics.GetCounter("compiler.search.fops_dominated").Add(merged.fops_dominated);
  metrics.GetCounter("compiler.search.costed_choices").Add(merged.costed_choices);
  // Enumeration is collecting the F_ops, filtering the chunks' pass 1 and
  // cost_eval their pass 2.
  metrics.GetHistogram("compiler.phase.enumeration.seconds").Record(collect_seconds_);
  metrics.GetHistogram("compiler.phase.filtering.seconds").Record(merged.filtering_seconds);
  metrics.GetHistogram("compiler.phase.cost_eval.seconds").Record(merged.cost_eval_seconds);

  if (!merged.frontier.empty()) {
    obs::Span pareto_span = obs::StartSpan(obs::TraceContext(), "phase.pareto",
                                           &metrics.GetHistogram("compiler.phase.pareto.seconds"));
    result_.pareto = FrontierPlans(merged, fops_);
    metrics.GetCounter("compiler.search.pareto_plans")
        .Add(static_cast<std::int64_t>(result_.pareto.size()));
    done_ = true;
  } else {
    // No plan satisfied the constraints (tiny or awkwardly-shaped operator):
    // relax and retry, as a user would (paper §6.3 studies this knob).
    metrics.GetCounter("compiler.search.relaxations").Increment();
    T10_LOG(Info) << op_->name() << ": relaxing search constraints (attempt " << attempt_ + 1
                  << ")";
    active_.parallelism_fraction *= 0.5;
    active_.padding_threshold *= 0.8;
    if (++attempt_ == 4) {
      // Even with relaxed constraints nothing fits the per-core memory: the
      // operator is too large for this chip. Callers see an empty frontier.
      T10_LOG(Warning) << "operator " << op_->name() << " has no plan fitting "
                       << chip_->core_memory_bytes << "B per core";
      done_ = true;
    }
  }
  chunks_ = {};
  fops_ = {};
}

IntraOpResult OperatorSearch::TakeResult() {
  T10_CHECK(done_) << op_->name() << ": TakeResult() before the search is done";
  return std::move(result_);
}

IntraOpResult SearchOperatorPlans(const Operator& op, const ChipSpec& chip,
                                  const TimingSource& cost_model,
                                  const SearchConstraints& constraints) {
  OperatorSearch search(op, chip, cost_model, constraints);
  while (!search.done()) {
    search.Split(1);
    search.RunChunk(0);
    search.Merge();
  }
  return search.TakeResult();
}

}  // namespace t10
