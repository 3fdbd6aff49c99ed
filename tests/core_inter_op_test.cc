#include "src/core/inter_op.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace t10 {
namespace {

OpPlanOption Option(int index, double exec, std::int64_t active, std::int64_t weight) {
  OpPlanOption o;
  o.plan_index = index;
  o.exec_seconds = exec;
  o.active_bytes = active;
  o.weight_bytes = weight;
  o.weight_windows = {weight};
  return o;
}

ChipSpec TestChip() {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.sync_latency_seconds = 0.0;  // Make setup time pure transfer for easy math.
  return chip;
}

TEST(SetupSecondsTest, SamePlanIsFree) {
  ChipSpec chip = TestChip();
  OpPlanOption a = Option(0, 1.0, 100, 50);
  EXPECT_DOUBLE_EQ(SetupSeconds(a, a, chip), 0.0);
}

TEST(SetupSecondsTest, GrowingWindowCostsTransfer) {
  ChipSpec chip = TestChip();
  OpPlanOption idle = Option(0, 1.0, 100, 1000);
  OpPlanOption active = Option(1, 0.5, 200, 5500);
  // Fetch 4500 bytes at 5.5 GB/s.
  EXPECT_NEAR(SetupSeconds(idle, active, chip), 4500.0 / 5.5e9, 1e-15);
  // Shrinking costs nothing.
  EXPECT_DOUBLE_EQ(SetupSeconds(active, idle, chip), 0.0);
}

TEST(ReconcileTest, SingleOpPicksFastestFittingPlan) {
  ChipSpec chip = TestChip();
  InterOpOperator op;
  op.name = "mm";
  op.options = {Option(0, 2.0, 1000, 500), Option(1, 1.0, 5000, 2500),
                Option(2, 0.5, 20000, 10000)};
  InterOpSchedule schedule = ReconcileInterOp({op}, chip, 30000);
  ASSERT_TRUE(schedule.feasible);
  EXPECT_EQ(schedule.per_op[0].active_option, 2);
  // With enough search steps the idle layout converges to the active layout
  // (zero setup beats the tiny memory saving when memory is plentiful).
  EXPECT_DOUBLE_EQ(schedule.per_op[0].setup_seconds, 0.0);
}

TEST(ReconcileTest, MemoryPressureForcesSlowerPlan) {
  ChipSpec chip = TestChip();
  InterOpOperator op;
  op.name = "mm";
  op.options = {Option(0, 2.0, 1000, 500), Option(1, 0.5, 20000, 10000)};
  InterOpSchedule schedule = ReconcileInterOp({op}, chip, 1500);
  ASSERT_TRUE(schedule.feasible);
  EXPECT_EQ(schedule.per_op[0].active_option, 0);
}

TEST(ReconcileTest, InfeasibleWhenNothingFits) {
  ChipSpec chip = TestChip();
  InterOpOperator op;
  op.name = "huge";
  op.options = {Option(0, 1.0, 100000, 50000)};
  InterOpSchedule schedule = ReconcileInterOp({op}, chip, 1000);
  EXPECT_FALSE(schedule.feasible);
}

TEST(ReconcileTest, TradesIdleMemoryForSetupTime) {
  ChipSpec chip = TestChip();
  // Two ops; op A has a huge setup unless its idle layout is enlarged.
  InterOpOperator a;
  a.name = "a";
  a.options = {Option(0, 1.0, 60000, 1000), Option(1, 0.9, 120000, 110000)};
  InterOpOperator b;
  b.name = "b";
  b.options = {Option(0, 1.0, 50000, 2000)};
  const std::int64_t budget = 400000;

  InterOpSchedule greedy = ReconcileInterOp({a, b}, chip, budget);
  InterOpSchedule roller_style = ReconcileInterOp({a, b}, chip, budget, /*max_steps=*/1);
  ASSERT_TRUE(greedy.feasible);
  ASSERT_TRUE(roller_style.feasible);
  // The greedy policy must be at least as good, and here strictly better:
  // op A's idle layout grows to match its fast active plan, killing the
  // setup transfer of ~108KB.
  EXPECT_LT(greedy.total_seconds, roller_style.total_seconds);
  EXPECT_GT(greedy.idle_bytes_per_core, roller_style.idle_bytes_per_core);
}

TEST(ReconcileTest, TrajectoryIsMonotoneInIdleMemory) {
  ChipSpec chip = TestChip();
  InterOpOperator a;
  a.name = "a";
  a.options = {Option(0, 1.0, 5000, 100), Option(1, 0.8, 9000, 4000),
               Option(2, 0.7, 15000, 8000)};
  InterOpOperator b;
  b.name = "b";
  b.options = {Option(0, 2.0, 8000, 200), Option(1, 1.5, 20000, 9000)};
  InterOpSchedule schedule = ReconcileInterOp({a, b}, chip, 60000);
  ASSERT_TRUE(schedule.feasible);
  ASSERT_GE(schedule.trajectory.size(), 2u);
  for (std::size_t i = 1; i < schedule.trajectory.size(); ++i) {
    EXPECT_GT(schedule.trajectory[i].idle_bytes_per_core,
              schedule.trajectory[i - 1].idle_bytes_per_core);
  }
  // The chosen schedule matches the best trajectory point.
  double best = schedule.trajectory.front().total_seconds;
  for (const ReconcileStep& step : schedule.trajectory) {
    if (step.feasible) {
      best = std::min(best, step.total_seconds);
    }
  }
  EXPECT_DOUBLE_EQ(schedule.total_seconds, best);
}

TEST(ReconcileTest, EmptyModelIsFeasible) {
  InterOpSchedule schedule = ReconcileInterOp({}, TestChip(), 1000);
  EXPECT_TRUE(schedule.feasible);
  EXPECT_DOUBLE_EQ(schedule.total_seconds, 0.0);
}

// Algorithm 1 as a full rescan: every step re-prices every option of every
// operator. The reference the incremental ReconcileInterOp() must match.
InterOpSchedule FullRescanReconcile(const std::vector<InterOpOperator>& ops, const ChipSpec& chip,
                                    std::int64_t budget, int max_steps) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t n = ops.size();
  auto opt = [&](std::size_t i, int j) -> const OpPlanOption& {
    return ops[i].options[static_cast<std::size_t>(j)];
  };
  std::vector<int> idle(n, 0), active, best_idle, best_active;
  std::vector<std::int64_t> charged, best_charged;
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 1; j < static_cast<int>(ops[i].options.size()); ++j) {
      idle[i] = opt(i, j).weight_bytes < opt(i, idle[i]).weight_bytes ? j : idle[i];
    }
  }
  InterOpSchedule schedule;
  double best_time = kInf;
  for (int step = 0; max_steps < 0 || step < max_steps; ++step) {
    std::int64_t idle_bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      idle_bytes += opt(i, idle[i]).weight_bytes;
    }
    if (idle_bytes > budget) {
      break;
    }
    double time = 0.0;
    active.assign(n, -1);
    charged.assign(n, 0);
    for (std::size_t i = 0; i < n && time < kInf; ++i) {
      double op_time = kInf;
      const std::int64_t others_idle = idle_bytes - opt(i, idle[i]).weight_bytes;
      for (int j = 0; j < static_cast<int>(ops[i].options.size()); ++j) {
        const double t = opt(i, j).exec_seconds + SetupSeconds(opt(i, idle[i]), opt(i, j), chip);
        if (opt(i, j).active_bytes <= budget - others_idle && t < op_time) {
          op_time = t;
          active[i] = j;
        }
      }
      time = active[i] < 0 ? kInf : time + op_time;
      charged[i] = active[i] < 0 ? 0 : opt(i, active[i]).active_bytes + others_idle;
      schedule.stable_budget = std::max({schedule.stable_budget, idle_bytes, charged[i]});
    }
    schedule.trajectory.push_back(ReconcileStep{idle_bytes, time, time < kInf});
    if (time < best_time) {
      best_time = time;
      best_idle = idle;
      best_active = active;
      best_charged = charged;
      schedule.idle_bytes_per_core = idle_bytes;
    }
    double best_ratio = -1.0;
    std::size_t best_op = n;
    int best_option = -1;
    for (std::size_t i = 0; i < n; ++i) {
      for (int j = 0; active[i] >= 0 && j < static_cast<int>(ops[i].options.size()); ++j) {
        const std::int64_t delta_mem = opt(i, j).weight_bytes - opt(i, idle[i]).weight_bytes;
        const double delta_setup = SetupSeconds(opt(i, idle[i]), opt(i, active[i]), chip) -
                                   SetupSeconds(opt(i, j), opt(i, active[i]), chip);
        if (delta_mem > 0 && delta_setup > 0.0 &&
            delta_setup / static_cast<double>(delta_mem) > best_ratio) {
          best_ratio = delta_setup / static_cast<double>(delta_mem);
          best_op = i;
          best_option = j;
        }
      }
    }
    if (best_op == n) {
      break;
    }
    idle[best_op] = best_option;
  }
  schedule.feasible = best_time < kInf;
  if (!schedule.feasible) {
    schedule.idle_bytes_per_core = 0;
    return schedule;
  }
  schedule.total_seconds = best_time;
  for (std::size_t i = 0; i < n; ++i) {
    const double setup = SetupSeconds(opt(i, best_idle[i]), opt(i, best_active[i]), chip);
    schedule.per_op.push_back(OpSchedule{best_idle[i], best_active[i], setup,
                                         opt(i, best_active[i]).exec_seconds, best_charged[i]});
    schedule.setup_seconds += setup;
  }
  return schedule;
}

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Seeded random operator sets built to hit ties: few distinct byte and time
// values (so exact duplicates are common), options in no particular order,
// one or two weight operands. Budgets range from below the smallest idle
// footprint (infeasible) through tight to roomy.
TEST(ReconcileTest, IncrementalMatchesFullRescan) {
  const ChipSpec chip = ChipSpec::IpuMk2();
  std::mt19937_64 rng(23);
  auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  int feasible = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<InterOpOperator> ops(static_cast<std::size_t>(pick(1, 6)));
    std::int64_t min_idle = 0;
    std::int64_t max_active = 0;
    for (InterOpOperator& op : ops) {
      const int weights = pick(1, 2);
      const int count = pick(1, 7);
      std::int64_t op_min_idle = std::numeric_limits<std::int64_t>::max();
      for (int j = 0; j < count; ++j) {
        OpPlanOption o;
        o.plan_index = j;
        o.exec_seconds = 1e-6 * pick(1, 4);
        for (int w = 0; w < weights; ++w) {
          o.weight_windows.push_back(4096 * pick(0, 3));
          o.weight_bytes += o.weight_windows.back();
        }
        o.active_bytes = o.weight_bytes + 8192 * pick(0, 3);
        op_min_idle = std::min(op_min_idle, o.weight_bytes);
        max_active = std::max(max_active, o.active_bytes);
        op.options.push_back(std::move(o));
      }
      min_idle += op_min_idle;
    }
    const std::int64_t budget = min_idle - 4096 + 4096 * pick(0, 12) + max_active * pick(0, 1);
    for (const int max_steps : {1, -1}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " max_steps " + std::to_string(max_steps));
      const InterOpSchedule want = FullRescanReconcile(ops, chip, budget, max_steps);
      const InterOpSchedule got = ReconcileInterOp(ops, chip, budget, max_steps);
      (want.feasible ? feasible : infeasible) += 1;
      ASSERT_EQ(got.feasible, want.feasible);
      EXPECT_EQ(Bits(got.total_seconds), Bits(want.total_seconds));
      EXPECT_EQ(Bits(got.setup_seconds), Bits(want.setup_seconds));
      EXPECT_EQ(got.idle_bytes_per_core, want.idle_bytes_per_core);
      ASSERT_EQ(got.per_op.size(), want.per_op.size());
      for (std::size_t i = 0; i < want.per_op.size(); ++i) {
        EXPECT_EQ(got.per_op[i].idle_option, want.per_op[i].idle_option) << "op " << i;
        EXPECT_EQ(got.per_op[i].active_option, want.per_op[i].active_option) << "op " << i;
        EXPECT_EQ(Bits(got.per_op[i].setup_seconds), Bits(want.per_op[i].setup_seconds));
        EXPECT_EQ(Bits(got.per_op[i].exec_seconds), Bits(want.per_op[i].exec_seconds));
      }
      ASSERT_EQ(got.trajectory.size(), want.trajectory.size());
      for (std::size_t s = 0; s < want.trajectory.size(); ++s) {
        EXPECT_EQ(got.trajectory[s].idle_bytes_per_core, want.trajectory[s].idle_bytes_per_core);
        EXPECT_EQ(Bits(got.trajectory[s].total_seconds), Bits(want.trajectory[s].total_seconds));
        EXPECT_EQ(got.trajectory[s].feasible, want.trajectory[s].feasible);
      }
      if (HasFailure()) {
        return;
      }
    }
  }
  // The battery reaches both outcomes.
  EXPECT_GT(feasible, 100);
  EXPECT_GT(infeasible, 20);
}

// Every field of two schedules, bit for bit.
void ExpectSameSchedule(const InterOpSchedule& got, const InterOpSchedule& want) {
  ASSERT_EQ(got.feasible, want.feasible);
  EXPECT_EQ(Bits(got.total_seconds), Bits(want.total_seconds));
  EXPECT_EQ(Bits(got.setup_seconds), Bits(want.setup_seconds));
  EXPECT_EQ(got.idle_bytes_per_core, want.idle_bytes_per_core);
  EXPECT_EQ(got.stable_budget, want.stable_budget);
  ASSERT_EQ(got.per_op.size(), want.per_op.size());
  for (std::size_t i = 0; i < want.per_op.size(); ++i) {
    EXPECT_EQ(got.per_op[i].idle_option, want.per_op[i].idle_option) << "op " << i;
    EXPECT_EQ(got.per_op[i].active_option, want.per_op[i].active_option) << "op " << i;
    EXPECT_EQ(Bits(got.per_op[i].setup_seconds), Bits(want.per_op[i].setup_seconds));
    EXPECT_EQ(Bits(got.per_op[i].exec_seconds), Bits(want.per_op[i].exec_seconds));
    EXPECT_EQ(got.per_op[i].charged_bytes, want.per_op[i].charged_bytes) << "op " << i;
  }
  ASSERT_EQ(got.trajectory.size(), want.trajectory.size());
  for (std::size_t s = 0; s < want.trajectory.size(); ++s) {
    EXPECT_EQ(got.trajectory[s].idle_bytes_per_core, want.trajectory[s].idle_bytes_per_core);
    EXPECT_EQ(Bits(got.trajectory[s].total_seconds), Bits(want.trajectory[s].total_seconds));
    EXPECT_EQ(got.trajectory[s].feasible, want.trajectory[s].feasible);
  }
}

// Operators drawn in shuffled order from 2-4 shared option lists, as a
// compile hands them over (one list per Pareto set and weight operands).
// Few distinct byte and time values make ties frequent; budgets range from
// below the smallest idle footprint through tight to roomy. The set form
// must match the full rescan over per-operator copies of the lists,
// stable_budget and every charge included.
TEST(ReconcileTest, SharedOptionSetsMatchFullRescan) {
  const ChipSpec chip = ChipSpec::IpuMk2();
  std::mt19937_64 rng(35);
  auto pick = [&](int lo, int hi) { return std::uniform_int_distribution<int>(lo, hi)(rng); };
  int feasible = 0;
  int infeasible = 0;
  int long_runs = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<OpPlanOption>> lists(static_cast<std::size_t>(pick(2, 4)));
    for (std::vector<OpPlanOption>& list : lists) {
      const int weights = pick(1, 2);
      const int count = pick(1, 8);
      for (int j = 0; j < count; ++j) {
        OpPlanOption o;
        o.plan_index = j;
        o.exec_seconds = 1e-6 * pick(1, 4);
        for (int w = 0; w < weights; ++w) {
          o.weight_windows.push_back(4096 * pick(0, 3));
          o.weight_bytes += o.weight_windows.back();
        }
        o.active_bytes = o.weight_bytes + 8192 * pick(0, 3);
        list.push_back(std::move(o));
      }
    }
    std::vector<OpOptionSet> sets;
    for (const std::vector<OpPlanOption>& list : lists) {
      OpOptionSet& set = sets.emplace_back(static_cast<int>(list.front().weight_windows.size()));
      for (const OpPlanOption& o : list) {
        set.Add(o.exec_seconds, o.active_bytes, o.weight_windows);
      }
    }
    std::vector<int> set_of_op(static_cast<std::size_t>(pick(10, 60)));
    std::vector<InterOpOperator> ops(set_of_op.size());
    std::int64_t min_idle = 0;
    std::int64_t growth = 0;  // Idle bytes every operator's largest layout adds.
    std::int64_t max_active = 0;
    for (std::size_t i = 0; i < set_of_op.size(); ++i) {
      set_of_op[i] = pick(0, static_cast<int>(lists.size()) - 1);
      ops[i].options = lists[static_cast<std::size_t>(set_of_op[i])];
      std::int64_t least = std::numeric_limits<std::int64_t>::max();
      std::int64_t most = 0;
      for (const OpPlanOption& o : ops[i].options) {
        least = std::min(least, o.weight_bytes);
        most = std::max(most, o.weight_bytes);
        max_active = std::max(max_active, o.active_bytes);
      }
      min_idle += least;
      growth += most - least;
    }
    // Quadratic in the draw, so tight budgets are drawn more often.
    const std::int64_t span = (growth + max_active) / 4096 + 2;
    const std::int64_t f = pick(0, 16);
    const std::int64_t budget = min_idle - 4096 + 4096 * (span * f * f / 256);
    for (const int max_steps : {1, -1}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " max_steps " + std::to_string(max_steps));
      const InterOpSchedule want = FullRescanReconcile(ops, chip, budget, max_steps);
      ExpectSameSchedule(ReconcileInterOp(sets, set_of_op, chip, budget, max_steps), want);
      (want.feasible ? feasible : infeasible) += 1;
      long_runs += want.trajectory.size() >= 10 ? 1 : 0;
      if (HasFailure()) {
        return;
      }
    }
  }
  // The battery reaches both outcomes, and many runs take many steps.
  EXPECT_GT(feasible, 300);
  EXPECT_GT(infeasible, 80);
  EXPECT_GT(long_runs, 60);
}

}  // namespace
}  // namespace t10
