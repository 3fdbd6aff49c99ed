#include "src/core/inter_op.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/obs/metrics.h"
#include "src/util/logging.h"

namespace t10 {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

std::int64_t FetchBytes(std::span<const std::int64_t> idle, std::span<const std::int64_t> active) {
  T10_CHECK_EQ(idle.size(), active.size());
  std::int64_t fetch_bytes = 0;
  for (std::size_t w = 0; w < active.size(); ++w) {
    // A core's active window is filled from data already on chip; whatever
    // its idle window already covers need not move.
    fetch_bytes += std::max<std::int64_t>(0, active[w] - idle[w]);
  }
  return fetch_bytes;
}

double FetchSeconds(std::int64_t fetch_bytes, const ChipSpec& chip) {
  if (fetch_bytes == 0) {
    return 0.0;
  }
  return chip.sync_latency_seconds +
         static_cast<double>(fetch_bytes) / chip.EffectiveLinkBandwidth();
}

// Algorithm 1's tables for one option set, shared by every operator that
// carries it and filled on first use. An option's active time,
// exec + SetupSeconds(idle, option), depends on the operator only through
// its idle option, and line 13's answer only through its (idle, active) pair.
class SetTables {
 public:
  struct Pick {
    double time = kInfinity;
    int option = -1;
  };

  SetTables(const OpOptionSet& set, const ChipSpec& chip)
      : set_(&set),
        chip_(&chip),
        by_bytes_(static_cast<std::size_t>(set.size())),
        sorted_bytes_(by_bytes_.size()),
        prefix_(by_bytes_.size() * by_bytes_.size()),
        prefix_filled_(by_bytes_.size(), false),
        upgrades_(by_bytes_.size() * by_bytes_.size(), Upgrade{-1.0, kUnfilled}) {
    std::iota(by_bytes_.begin(), by_bytes_.end(), 0);
    std::stable_sort(by_bytes_.begin(), by_bytes_.end(), [&](int a, int b) {
      return set.active_bytes(a) < set.active_bytes(b);
    });
    for (std::size_t k = 0; k < by_bytes_.size(); ++k) {
      sorted_bytes_[k] = set.active_bytes(by_bytes_[k]);
    }
  }

  const OpOptionSet& set() const { return *set_; }
  int size() const { return set_->size(); }

  // The last position, in active-bytes order and at most `below`, whose
  // option fits `available` bytes; -1 if none does.
  int FitPosition(std::int64_t available, int below) const {
    return static_cast<int>(std::upper_bound(sorted_bytes_.begin(),
                                             sorted_bytes_.begin() + below + 1, available) -
                            sorted_bytes_.begin()) -
           1;
  }
  std::int64_t bytes_at(int k) const { return sorted_bytes_[static_cast<std::size_t>(k)]; }

  // The fastest of the k+1 options with the least active bytes under idle
  // option `idle`, the lowest index among equal times (-1 while none has a
  // finite time).
  const Pick& Prefix(int idle, int k) {
    const std::size_t n = by_bytes_.size();
    const std::size_t row = static_cast<std::size_t>(idle) * n;
    if (!prefix_filled_[static_cast<std::size_t>(idle)]) {
      prefix_filled_[static_cast<std::size_t>(idle)] = true;
      Pick best;
      for (std::size_t p = 0; p < n; ++p) {
        const int j = by_bytes_[p];
        const double time = set_->exec_seconds(j) + set_->SetupSeconds(idle, j, *chip_);
        if (time < best.time || (time == best.time && best.option >= 0 && j < best.option)) {
          best = Pick{time, j};
        }
        prefix_[row + p] = best;
      }
    }
    return prefix_[row + static_cast<std::size_t>(k)];
  }

  // Line 13 for an operator idling in `idle` while `active` runs: the larger
  // idle layout that buys the most setup time per byte, the first of equal
  // ratios. Its option is -1 if none buys any.
  void BestUpgrade(int idle, int active, double& ratio, int& option) {
    Upgrade& u = upgrades_[static_cast<std::size_t>(idle) * by_bytes_.size() +
                           static_cast<std::size_t>(active)];
    if (u.option == kUnfilled) {
      u = Upgrade{-1.0, -1};
      const double current_setup = set_->SetupSeconds(idle, active, *chip_);
      for (int j = 0; j < size(); ++j) {
        const std::int64_t delta_mem = set_->weight_bytes(j) - set_->weight_bytes(idle);
        if (delta_mem <= 0) {
          continue;
        }
        const double delta_setup = current_setup - set_->SetupSeconds(j, active, *chip_);
        if (delta_setup <= 0.0) {
          continue;
        }
        const double r = delta_setup / static_cast<double>(delta_mem);
        if (r > u.ratio) {
          u = Upgrade{r, j};
        }
      }
    }
    ratio = u.ratio;
    option = u.option;
  }

 private:
  static constexpr int kUnfilled = -2;
  struct Upgrade {
    double ratio;
    int option;
  };

  const OpOptionSet* set_;
  const ChipSpec* chip_;
  std::vector<int> by_bytes_;                 // Option indices, active bytes ascending.
  std::vector<std::int64_t> sorted_bytes_;    // Their active bytes.
  std::vector<Pick> prefix_;                  // [idle][position], see Prefix().
  std::vector<bool> prefix_filled_;           // Per idle option.
  std::vector<Upgrade> upgrades_;             // [idle][active], see BestUpgrade().
};

// Every operator's state across greedy steps, one flat array per field.
// Each operator's active pick is the prefix-best entry at `pos`, the last
// position in its set's active-bytes order that fits its bound: the budget
// minus the other operators' idle bytes. The bound only shrinks (the idle
// total only grows, and a step that moves an operator's own idle layout
// leaves the others' bytes alone), so `pos` only moves down, and the pick
// stands until the idle total passes `threshold`.
class OpStates {
 public:
  OpStates(std::span<SetTables> tables, std::span<const int> set_of_op, std::int64_t budget)
      : tables_(tables),
        set_of_op_(set_of_op),
        budget_(budget),
        idle_(set_of_op.size()),
        pos_(set_of_op.size()),
        threshold_(set_of_op.size(), std::numeric_limits<std::int64_t>::min()),
        seconds_(set_of_op.size()),
        active_(set_of_op.size(), -1),
        charge_(set_of_op.size()),
        ratio_(set_of_op.size()),
        upgrade_(set_of_op.size()) {
    // Lines 2-3: every operator starts at its most memory-efficient idle
    // layout. The threshold forces a pick at the first step.
    for (std::size_t i = 0; i < set_of_op.size(); ++i) {
      T10_CHECK_LT(static_cast<std::size_t>(set_of_op[i]), tables_.size()) << "operator " << i;
      const OpOptionSet& set = tables_[static_cast<std::size_t>(set_of_op[i])].set();
      T10_CHECK_GT(set.size(), 0) << "operator " << i << " has no plan options";
      int best = 0;
      for (int j = 1; j < set.size(); ++j) {
        best = set.weight_bytes(j) < set.weight_bytes(best) ? j : best;
      }
      idle_[i] = best;
      pos_[i] = set.size() - 1;
      idle_bytes_ += set.weight_bytes(best);
    }
  }

  std::size_t size() const { return idle_.size(); }
  std::int64_t idle_bytes() const { return idle_bytes_; }
  double seconds(std::size_t i) const { return seconds_[i]; }
  std::int64_t charge(std::size_t i) const { return charge_[i]; }
  double ratio(std::size_t i) const { return ratio_[i]; }
  int upgrade(std::size_t i) const { return upgrade_[i]; }
  const std::vector<int>& idle_options() const { return idle_; }
  const std::vector<int>& active_options() const { return active_; }
  const std::vector<std::int64_t>& charges() const { return charge_; }

  // Re-picks operator i if the idle total passed its threshold; false if
  // then no active plan fits it.
  bool Refresh(std::size_t i) {
    if (idle_bytes_ > threshold_[i]) {
      Repick(i);
    }
    return active_[i] >= 0;
  }

  // Lines 14-15: moves operator i to idle option `idle`. Its own fit bound,
  // budget minus the others' idle bytes, does not move.
  void MoveIdle(std::size_t i, int idle) {
    const OpOptionSet& set = tables_[static_cast<std::size_t>(set_of_op_[i])].set();
    T10_CHECK_GT(set.weight_bytes(idle), set.weight_bytes(idle_[i])) << "operator " << i;
    idle_bytes_ += set.weight_bytes(idle) - set.weight_bytes(idle_[i]);
    idle_[i] = idle;
    Repick(i);
  }

 private:
  void Repick(std::size_t i) {
    SetTables& tables = tables_[static_cast<std::size_t>(set_of_op_[i])];
    const std::int64_t own_idle = tables.set().weight_bytes(idle_[i]);
    pos_[i] = tables.FitPosition(budget_ - (idle_bytes_ - own_idle), pos_[i]);
    if (pos_[i] < 0) {
      active_[i] = -1;
      threshold_[i] = std::numeric_limits<std::int64_t>::max();
      return;
    }
    threshold_[i] = budget_ + own_idle - tables.bytes_at(pos_[i]);
    const SetTables::Pick& pick = tables.Prefix(idle_[i], pos_[i]);
    active_[i] = pick.option;
    if (pick.option < 0) {
      return;
    }
    seconds_[i] = pick.time;
    charge_[i] = tables.set().active_bytes(pick.option) - own_idle;
    tables.BestUpgrade(idle_[i], pick.option, ratio_[i], upgrade_[i]);
  }

  std::span<SetTables> tables_;
  std::span<const int> set_of_op_;
  std::int64_t budget_;
  std::int64_t idle_bytes_ = 0;         // Every operator's idle bytes.
  std::vector<int> idle_;
  std::vector<int> pos_;                // Active-bytes position of the pick.
  std::vector<std::int64_t> threshold_;  // Idle total above which pos_ no longer fits.
  std::vector<double> seconds_;         // The pick's exec + setup seconds.
  std::vector<int> active_;             // The pick; -1 if no plan fits.
  std::vector<std::int64_t> charge_;    // The pick's active bytes minus own idle bytes.
  std::vector<double> ratio_;           // Line 13's answer for (idle, active).
  std::vector<int> upgrade_;
};

}  // namespace

void OpOptionSet::Add(double exec_seconds, std::int64_t active_bytes,
                      std::span<const std::int64_t> windows) {
  T10_CHECK_EQ(windows.size(), static_cast<std::size_t>(num_weights_));
  exec_seconds_.push_back(exec_seconds);
  active_bytes_.push_back(active_bytes);
  weight_bytes_.push_back(std::accumulate(windows.begin(), windows.end(), std::int64_t{0}));
  windows_.insert(windows_.end(), windows.begin(), windows.end());
}

std::int64_t OpOptionSet::SetupFetchBytes(int idle, int active) const {
  if (idle == active) {
    return 0;
  }
  const std::span<const std::int64_t> windows(windows_);
  const std::size_t n = static_cast<std::size_t>(num_weights_);
  return FetchBytes(windows.subspan(static_cast<std::size_t>(idle) * n, n),
                    windows.subspan(static_cast<std::size_t>(active) * n, n));
}

double OpOptionSet::SetupSeconds(int idle, int active, const ChipSpec& chip) const {
  return FetchSeconds(SetupFetchBytes(idle, active), chip);
}

std::int64_t SetupFetchBytes(const OpPlanOption& idle, const OpPlanOption& active) {
  if (idle.plan_index == active.plan_index) {
    return 0;
  }
  return FetchBytes(idle.weight_windows, active.weight_windows);
}

double SetupSeconds(const OpPlanOption& idle, const OpPlanOption& active, const ChipSpec& chip) {
  return FetchSeconds(SetupFetchBytes(idle, active), chip);
}

InterOpSchedule ReconcileInterOp(std::span<const OpOptionSet> sets,
                                 std::span<const int> set_of_op, const ChipSpec& chip,
                                 std::int64_t memory_budget_per_core, int max_steps) {
  InterOpSchedule schedule;
  if (set_of_op.empty()) {
    schedule.feasible = true;
    return schedule;
  }
  std::vector<SetTables> tables;
  tables.reserve(sets.size());
  for (const OpOptionSet& set : sets) {
    tables.emplace_back(set, chip);
  }
  OpStates states(tables, set_of_op, memory_budget_per_core);
  const std::size_t num_ops = states.size();

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
  std::vector<std::int64_t> best_charge;
  std::int64_t best_idle_bytes = 0;

  int steps_taken = 0;
  while (max_steps < 0 || steps_taken++ < max_steps) {
    const std::int64_t idle_bytes = states.idle_bytes();
    if (idle_bytes > memory_budget_per_core) {
      break;  // Line 6 guard.
    }
    // Lines 7-9: refit the active plans whose pick the idle total moved and
    // sum the end-to-end time in operator order, up to the first operator
    // with no fitting plan (it and every later operator stay unassigned).
    double time = 0.0;
    std::size_t assigned = 0;
    std::int64_t largest_charge = std::numeric_limits<std::int64_t>::min();
    for (; assigned < num_ops && states.Refresh(assigned); ++assigned) {
      time += states.seconds(assigned);
      largest_charge = std::max(largest_charge, states.charge(assigned));
    }
    if (assigned < num_ops) {
      time = kInfinity;
    }
    // A smaller budget that still covers this step's idle bytes and every
    // charge (a pick's active bytes plus the other operators' idle bytes)
    // keeps every pick here, and so the whole trajectory.
    schedule.stable_budget = std::max(schedule.stable_budget, idle_bytes);
    if (assigned > 0) {
      schedule.stable_budget = std::max(schedule.stable_budget, largest_charge + idle_bytes);
    }
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
      best_idle = states.idle_options();
      best_active = states.active_options();
      best_charge = states.charges();
      best_idle_bytes = idle_bytes;
    }

    // Line 13: the assigned operator whose next idle layout buys the most
    // setup time per byte of idle memory (the first of equal ratios).
    double best_ratio = -1.0;
    std::size_t best_op = num_ops;
    for (std::size_t i = 0; i < assigned; ++i) {
      if (states.ratio(i) > best_ratio) {
        best_ratio = states.ratio(i);
        best_op = i;
      }
    }
    if (best_op == num_ops) {
      break;  // No operator can trade memory for setup time any more.
    }
    states.MoveIdle(best_op, states.upgrade(best_op));  // Lines 14-15.
  }

  if (best_time == kInfinity) {
    schedule.feasible = false;
    return schedule;
  }
  schedule.feasible = true;
  schedule.total_seconds = best_time;
  schedule.idle_bytes_per_core = best_idle_bytes;
  schedule.per_op.resize(num_ops);
  for (std::size_t i = 0; i < num_ops; ++i) {
    const OpOptionSet& set = sets[static_cast<std::size_t>(set_of_op[i])];
    OpSchedule& s = schedule.per_op[i];
    s.idle_option = best_idle[i];
    s.active_option = best_active[i];
    s.setup_seconds = set.SetupSeconds(s.idle_option, s.active_option, chip);
    s.exec_seconds = set.exec_seconds(s.active_option);
    s.charged_bytes = best_charge[i] + best_idle_bytes;
    schedule.setup_seconds += s.setup_seconds;
  }
  return schedule;
}

InterOpSchedule ReconcileInterOp(const std::vector<InterOpOperator>& ops, const ChipSpec& chip,
                                 std::int64_t memory_budget_per_core, int max_steps) {
  std::vector<OpOptionSet> sets;
  std::vector<int> set_of_op;
  sets.reserve(ops.size());
  for (const InterOpOperator& op : ops) {
    T10_CHECK(!op.options.empty()) << op.name << " has no plan options";
    OpOptionSet& set =
        sets.emplace_back(static_cast<int>(op.options.front().weight_windows.size()));
    for (std::size_t j = 0; j < op.options.size(); ++j) {
      const OpPlanOption& option = op.options[j];
      T10_CHECK_EQ(option.plan_index, static_cast<int>(j)) << op.name;
      set.Add(option.exec_seconds, option.active_bytes, option.weight_windows);
    }
    set_of_op.push_back(static_cast<int>(set_of_op.size()));
  }
  return ReconcileInterOp(sets, set_of_op, chip, memory_budget_per_core, max_steps);
}

}  // namespace t10
