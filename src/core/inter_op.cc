#include "src/core/inter_op.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace t10 {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Algorithm 1's view of one operator, kept across greedy steps. An option's
// active time exec + SetupSeconds(idle, option) moves only when the idle
// option does, so it is tabled per operator and re-tabled only for the
// operator whose idle layout a step moved.
class OpState {
 public:
  explicit OpState(const InterOpOperator& op)
      : options_(&op.options),
        by_bytes_(op.options.size()),
        prefix_time_(op.options.size()),
        prefix_option_(op.options.size()) {
    std::iota(by_bytes_.begin(), by_bytes_.end(), 0);
    std::stable_sort(by_bytes_.begin(), by_bytes_.end(), [&](int a, int b) {
      return option(a).active_bytes < option(b).active_bytes;
    });
  }

  const OpPlanOption& option(int j) const { return (*options_)[static_cast<std::size_t>(j)]; }

  // Re-tables active times for idle option `idle`: entry k is the fastest of
  // the k+1 options with the least active bytes, the lowest index among
  // equal times (-1 while none has a finite time).
  void SetIdle(int idle, const ChipSpec& chip) {
    idle_ = idle;
    const OpPlanOption& idle_opt = option(idle);
    double best_time = kInfinity;
    int best = -1;
    for (std::size_t k = 0; k < by_bytes_.size(); ++k) {
      const int j = by_bytes_[k];
      const double time = option(j).exec_seconds + SetupSeconds(idle_opt, option(j), chip);
      if (time < best_time || (time == best_time && best >= 0 && j < best)) {
        best_time = time;
        best = j;
      }
      prefix_time_[k] = best_time;
      prefix_option_[k] = best;
    }
  }
  int idle() const { return idle_; }

  // The fastest option whose active footprint fits `available` bytes (the
  // lowest index among equal times) and its time; -1 if none fits.
  int BestActive(std::int64_t available, double& time) const {
    const auto fits =
        std::upper_bound(by_bytes_.begin(), by_bytes_.end(), available,
                         [&](std::int64_t bytes, int j) { return bytes < option(j).active_bytes; });
    if (fits == by_bytes_.begin()) {
      return -1;
    }
    const std::size_t k = static_cast<std::size_t>(fits - by_bytes_.begin()) - 1;
    time = prefix_time_[k];
    return prefix_option_[k];
  }

  // Line 13 for this operator: the larger idle layout that buys the most
  // setup time per byte while `active` runs, the first of equal ratios.
  // Returns -1 if none buys any; cached on the (idle, active) pair.
  int BestUpgrade(int active, const ChipSpec& chip, double& ratio) {
    if (upgrade_key_ != std::pair{idle_, active}) {
      upgrade_key_ = {idle_, active};
      upgrade_ratio_ = -1.0;
      upgrade_option_ = -1;
      const OpPlanOption& current_idle = option(idle_);
      const OpPlanOption& current_active = option(active);
      const double current_setup = SetupSeconds(current_idle, current_active, chip);
      for (std::size_t j = 0; j < options_->size(); ++j) {
        const OpPlanOption& candidate = (*options_)[j];
        const std::int64_t delta_mem = candidate.weight_bytes - current_idle.weight_bytes;
        if (delta_mem <= 0) {
          continue;
        }
        const double delta_setup = current_setup - SetupSeconds(candidate, current_active, chip);
        if (delta_setup <= 0.0) {
          continue;
        }
        const double r = delta_setup / static_cast<double>(delta_mem);
        if (r > upgrade_ratio_) {
          upgrade_ratio_ = r;
          upgrade_option_ = static_cast<int>(j);
        }
      }
    }
    ratio = upgrade_ratio_;
    return upgrade_option_;
  }

 private:
  const std::vector<OpPlanOption>* options_;
  std::vector<int> by_bytes_;                // Option indices, active bytes ascending.
  std::vector<double> prefix_time_;          // See SetIdle().
  std::vector<int> prefix_option_;
  int idle_ = -1;
  std::pair<int, int> upgrade_key_{-1, -1};  // (idle, active) of the cached upgrade.
  double upgrade_ratio_ = -1.0;
  int upgrade_option_ = -1;
};

// For every operator, picks the fastest active plan that fits in
// budget - (idle bytes of all *other* operators), and computes the end-to-end
// time. charged_out[i] is what that pick charges against the budget: its
// active bytes plus the other operators' idle bytes. Returns infinity at the
// first operator with no fitting plan, leaving it and every later operator at
// -1 with no charge.
double AssignActivePlans(const std::vector<OpState>& states, std::int64_t budget,
                         std::int64_t total_idle, std::vector<int>& active_out,
                         std::vector<std::int64_t>& charged_out) {
  double total_seconds = 0.0;
  active_out.assign(states.size(), -1);
  charged_out.assign(states.size(), 0);
  for (std::size_t i = 0; i < states.size(); ++i) {
    const OpState& state = states[i];
    const std::int64_t others_idle = total_idle - state.option(state.idle()).weight_bytes;
    double time = kInfinity;
    const int best = state.BestActive(budget - others_idle, time);
    if (best < 0) {
      return kInfinity;
    }
    active_out[i] = best;
    charged_out[i] = state.option(best).active_bytes + others_idle;
    total_seconds += time;
  }
  return total_seconds;
}

}  // namespace

std::int64_t SetupFetchBytes(const OpPlanOption& idle, const OpPlanOption& active) {
  if (idle.plan_index == active.plan_index) {
    return 0;
  }
  T10_CHECK_EQ(idle.weight_windows.size(), active.weight_windows.size());
  std::int64_t fetch_bytes = 0;
  for (std::size_t w = 0; w < active.weight_windows.size(); ++w) {
    // A core's active window is filled from data already on chip; whatever
    // its idle window already covers need not move.
    fetch_bytes += std::max<std::int64_t>(0, active.weight_windows[w] - idle.weight_windows[w]);
  }
  return fetch_bytes;
}

double SetupSeconds(const OpPlanOption& idle, const OpPlanOption& active, const ChipSpec& chip) {
  const std::int64_t fetch_bytes = SetupFetchBytes(idle, active);
  if (fetch_bytes == 0) {
    return 0.0;
  }
  return chip.sync_latency_seconds +
         static_cast<double>(fetch_bytes) / chip.EffectiveLinkBandwidth();
}

InterOpSchedule ReconcileInterOp(const std::vector<InterOpOperator>& ops, const ChipSpec& chip,
                                 std::int64_t memory_budget_per_core, int max_steps) {
  InterOpSchedule schedule;
  if (ops.empty()) {
    schedule.feasible = true;
    return schedule;
  }
  for (const InterOpOperator& op : ops) {
    T10_CHECK(!op.options.empty()) << op.name << " has no plan options";
  }

  // Line 2-3: start every operator at its most memory-efficient idle layout.
  std::vector<OpState> states;
  states.reserve(ops.size());
  std::int64_t idle_bytes = 0;
  for (const InterOpOperator& op : ops) {
    int best = 0;
    for (std::size_t j = 1; j < op.options.size(); ++j) {
      if (op.options[j].weight_bytes < op.options[static_cast<std::size_t>(best)].weight_bytes) {
        best = static_cast<int>(j);
      }
    }
    states.emplace_back(op).SetIdle(best, chip);
    idle_bytes += op.options[static_cast<std::size_t>(best)].weight_bytes;
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter& step_count = metrics.GetCounter("compiler.reconcile.steps");
  obs::Gauge& delta_idle_gauge = metrics.GetGauge("compiler.reconcile.delta_idle_bytes");
  obs::Histogram& delta_idle_dist =
      metrics.GetHistogram("compiler.reconcile.delta_idle_bytes.dist");
  obs::Gauge& delta_seconds_gauge = metrics.GetGauge("compiler.reconcile.delta_seconds");
  obs::Histogram& delta_seconds_dist =
      metrics.GetHistogram("compiler.reconcile.delta_seconds.dist");

  double best_time = kInfinity;
  std::vector<int> best_idle;
  std::vector<int> best_active;
  std::vector<std::int64_t> best_charged;
  std::int64_t best_idle_bytes = 0;

  std::vector<int> active;
  std::vector<std::int64_t> charged;
  int steps_taken = 0;
  while (max_steps < 0 || steps_taken++ < max_steps) {
    if (idle_bytes > memory_budget_per_core) {
      break;  // Line 6 guard.
    }
    // Lines 7-9: refit active plans, estimate end-to-end time.
    const double time =
        AssignActivePlans(states, memory_budget_per_core, idle_bytes, active, charged);
    // A smaller budget that still covers this step's idle bytes and every
    // charge keeps every pick here, and so the whole trajectory.
    schedule.stable_budget = std::max(
        {schedule.stable_budget, idle_bytes, *std::max_element(charged.begin(), charged.end())});
    // Per-step ΔT/ΔM telemetry: how much end-to-end time the last idle-layout
    // upgrade bought, and how much idle memory it spent (Fig 20's slope).
    if (!schedule.trajectory.empty()) {
      const ReconcileStep& prev = schedule.trajectory.back();
      step_count.Increment();
      const double delta_m = static_cast<double>(idle_bytes - prev.idle_bytes_per_core);
      delta_idle_gauge.Set(delta_m);
      delta_idle_dist.Record(delta_m);
      if (std::isfinite(time) && std::isfinite(prev.total_seconds)) {
        const double delta_t = prev.total_seconds - time;  // Positive = faster.
        delta_seconds_gauge.Set(delta_t);
        delta_seconds_dist.Record(std::abs(delta_t));
      }
    }
    schedule.trajectory.push_back(ReconcileStep{idle_bytes, time, time < kInfinity});
    if (time < best_time) {  // Lines 10-12.
      best_time = time;
      best_idle.resize(states.size());
      for (std::size_t i = 0; i < states.size(); ++i) {
        best_idle[i] = states[i].idle();
      }
      best_active = active;
      best_charged = charged;
      best_idle_bytes = idle_bytes;
    }

    // Line 13: the operator whose next idle layout buys the most setup time
    // per byte of idle memory (the first of equal ratios).
    double best_ratio = -1.0;
    std::size_t best_op = ops.size();
    int best_option = -1;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (active[i] < 0) {
        continue;
      }
      double ratio = -1.0;
      const int option = states[i].BestUpgrade(active[i], chip, ratio);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_op = i;
        best_option = option;
      }
    }
    if (best_op == ops.size()) {
      break;  // No operator can trade memory for setup time any more.
    }
    // Lines 14-15.
    OpState& moved = states[best_op];
    idle_bytes += moved.option(best_option).weight_bytes - moved.option(moved.idle()).weight_bytes;
    moved.SetIdle(best_option, chip);
  }

  if (best_time == kInfinity) {
    schedule.feasible = false;
    return schedule;
  }
  schedule.feasible = true;
  schedule.total_seconds = best_time;
  schedule.idle_bytes_per_core = best_idle_bytes;
  schedule.per_op.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    OpSchedule& s = schedule.per_op[i];
    s.idle_option = best_idle[i];
    s.active_option = best_active[i];
    const OpPlanOption& idle_opt = ops[i].options[static_cast<std::size_t>(s.idle_option)];
    const OpPlanOption& active_opt = ops[i].options[static_cast<std::size_t>(s.active_option)];
    s.setup_seconds = SetupSeconds(idle_opt, active_opt, chip);
    s.exec_seconds = active_opt.exec_seconds;
    s.charged_bytes = best_charged[i];
    schedule.setup_seconds += s.setup_seconds;
  }
  return schedule;
}

}  // namespace t10
