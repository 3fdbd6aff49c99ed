#include "src/core/search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/pass/intra_op_search.h"
#include "src/core/pass/plan_cache.h"
#include "src/ir/builder.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/util/thread_pool.h"

namespace t10 {
namespace {

class SearchTest : public ::testing::Test {
 protected:
  SearchTest()
      : chip_([] {
          ChipSpec chip = ChipSpec::IpuMk2();
          chip.num_cores = 64;
          chip.cores_per_chip = 64;
          return chip;
        }()),
        timing_(chip_) {}

  ChipSpec chip_;
  GroundTruthTiming timing_;
};

TEST_F(SearchTest, ParetoFrontierIsMinimal) {
  Operator op = MatMulOp("mm", 64, 256, 64, DataType::kF16, "A", "B", "C");
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_);
  ASSERT_GE(result.pareto.size(), 2u) << "expected a memory/time trade-off";
  for (std::size_t i = 1; i < result.pareto.size(); ++i) {
    // Sorted by memory ascending, and strictly improving in time.
    EXPECT_GT(result.pareto[i].predicted.per_core_bytes,
              result.pareto[i - 1].predicted.per_core_bytes);
    EXPECT_LT(result.pareto[i].predicted.total_seconds(),
              result.pareto[i - 1].predicted.total_seconds());
  }
}

TEST_F(SearchTest, AllPlansRespectChipLimits) {
  Operator op = MatMulOp("mm", 32, 128, 96, DataType::kF16, "A", "B", "C");
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_);
  for (const PlanCandidate& c : result.pareto) {
    EXPECT_LE(c.predicted.per_core_bytes, chip_.core_memory_bytes);
    EXPECT_LE(c.plan.cores_used(), chip_.num_cores);
    EXPECT_GE(c.plan.padding_ratio(), 0.9 - 1e-9);
  }
}

TEST_F(SearchTest, ParallelismConstraintHolds) {
  Operator op = MatMulOp("mm", 64, 64, 64, DataType::kF16, "A", "B", "C");
  SearchConstraints constraints;
  constraints.parallelism_fraction = 0.9;
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_, constraints);
  for (const PlanCandidate& c : result.pareto) {
    EXPECT_GE(c.plan.cores_used(), static_cast<std::int64_t>(0.9 * 64));
  }
}

TEST_F(SearchTest, LooserConstraintsEnlargeFilteredSpace) {
  Operator op = MatMulOp("mm", 48, 96, 80, DataType::kF16, "A", "B", "C");
  SearchConstraints strict;
  strict.parallelism_fraction = 0.95;
  strict.padding_threshold = 0.95;
  SearchConstraints loose;
  loose.parallelism_fraction = 0.5;
  loose.padding_threshold = 0.8;
  IntraOpResult strict_result = SearchOperatorPlans(op, chip_, timing_, strict);
  IntraOpResult loose_result = SearchOperatorPlans(op, chip_, timing_, loose);
  EXPECT_GT(loose_result.filtered_count, strict_result.filtered_count);
}

TEST_F(SearchTest, CompleteSpaceVastlyExceedsFiltered) {
  Operator op = Conv2dOp("conv", 8, 64, 64, 28, 28, 3, 3, DataType::kF16, "I", "W", "O");
  SearchConstraints constraints;
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_, constraints);
  // Fig 18: complete space is astronomically larger than the filtered space.
  EXPECT_GT(result.complete_space_log10, 10.0);
  EXPECT_GT(result.filtered_count, 0);
  EXPECT_LT(std::log10(static_cast<double>(result.filtered_count)),
            result.complete_space_log10 - 3.0);
  // Final Pareto sets are small (paper: < 50 for most operators).
  EXPECT_LE(result.pareto.size(), 200u);
}

TEST_F(SearchTest, TinyOperatorRelaxesConstraints) {
  // A 4-element op cannot use 90% of 64 cores; the search must relax rather
  // than fail.
  Operator op = ElementwiseOp("tiny", {2, 2}, DataType::kF16, "x", "y");
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_);
  ASSERT_FALSE(result.pareto.empty());
  EXPECT_LE(result.pareto.front().plan.cores_used(), 4);
}

TEST_F(SearchTest, VendorOpGetsSingleFixedPlan) {
  Operator op = VendorOp("sort", {1024}, DataType::kF16, "x", "y");
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_);
  ASSERT_EQ(result.pareto.size(), 1u);
  EXPECT_GT(result.pareto.front().plan.cores_used(), 1);
}

TEST_F(SearchTest, SkinnyMatMulUsesReductionPartitioning) {
  // LLM-decode style m=1: parallel axes alone (1 x 64) cannot fill 64 cores
  // beyond n; k-partitioning should appear somewhere in the frontier.
  Operator op = MatMulOp("decode", 1, 512, 64, DataType::kF16, "A", "B", "C");
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_);
  ASSERT_FALSE(result.pareto.empty());
  bool uses_reduction_split = false;
  for (const PlanCandidate& c : result.pareto) {
    if (c.plan.reduce_group() > 1) {
      uses_reduction_split = true;
    }
  }
  EXPECT_TRUE(uses_reduction_split);
}

TEST_F(SearchTest, ZeroRotatingDimsMeansReplicationOnly) {
  Operator op = MatMulOp("mm", 64, 256, 64, DataType::kF16, "A", "B", "C");
  SearchConstraints replicate;
  replicate.max_rotating_dims = 0;
  IntraOpResult result = SearchOperatorPlans(op, chip_, timing_, replicate);
  ASSERT_FALSE(result.pareto.empty());
  for (const PlanCandidate& c : result.pareto) {
    for (const RTensorPlan& tp : c.plan.tensors()) {
      EXPECT_TRUE(tp.rotating_dims.empty()) << c.plan.DebugString();
    }
    EXPECT_EQ(c.plan.total_steps(), 1);
  }
  // One temporal option per input: one candidate per F_op at most.
  EXPECT_LE(result.filtered_count, result.fop_count);
  EXPECT_LT(result.filtered_count, SearchOperatorPlans(op, chip_, timing_).filtered_count);
}

using SearchDeathTest = SearchTest;

TEST_F(SearchDeathTest, MoreThanTwoRotatingDimsIsRejected) {
  Operator op = MatMulOp("mm", 64, 256, 64, DataType::kF16, "A", "B", "C");
  SearchConstraints constraints;
  constraints.max_rotating_dims = 3;
  EXPECT_DEATH(SearchOperatorPlans(op, chip_, timing_, constraints), "max_rotating_dims");
}

// Every PlanMetrics field, floats in hexfloat so any bit of drift shows.
std::string MetricsString(const PlanMetrics& m) {
  std::ostringstream out;
  out << std::hexfloat << " " << m.cores_used << " " << m.steps << " " << m.compute_seconds
      << " " << m.exchange_seconds << " " << m.epilogue_seconds << " " << m.per_core_bytes << " "
      << m.shift_bytes_per_core << " " << m.padding_ratio << " " << m.interchip_bytes << " "
      << m.interchip_seconds;
  return out.str();
}

// Each frontier plan's F_op, every tensor's temporal factors and the
// predicted metrics (hexfloat, so any bit of drift shows), a line each.
std::string FrontierString(const std::vector<PlanCandidate>& pareto) {
  std::ostringstream out;
  for (const PlanCandidate& c : pareto) {
    for (std::int64_t f : c.plan.fop()) {
      out << f << ",";
    }
    for (const RTensorPlan& tp : c.plan.tensors()) {
      out << "|";
      for (std::int64_t f : tp.temporal) {
        out << f << ",";
      }
    }
    out << MetricsString(c.predicted) << "\n";
  }
  return out.str();
}

// FNV checksum of everything a search returns: its frontier plans
// (FrontierString()) plus the space statistics.
std::uint64_t ResultChecksum(const IntraOpResult& result) {
  std::ostringstream out;
  out << std::hexfloat << result.complete_space_log10 << " " << result.filtered_count << " "
      << result.fop_count << "\n"
      << FrontierString(result.pareto);
  return Fnv1a64(out.str());
}

struct GoldenCase {
  std::string name;
  Operator op;
  SearchConstraints constraints;
};

// The evaluation cap of the "CappedMidFop" golden case: it stops the search
// inside an F_op, part way through that F_op's choices.
constexpr std::int64_t kMidFopCap = 500;

std::vector<GoldenCase> GoldenBattery() {
  SearchConstraints one_dim;
  one_dim.max_rotating_dims = 1;
  SearchConstraints capped;
  capped.max_evaluations = kMidFopCap;
  return {
      {"MatMul", MatMulOp("mm", 64, 256, 64, DataType::kF16, "A", "B", "C"), {}},
      {"BatchedMatMul",
       BatchedMatMulOp("bmm", 4, 32, 64, 48, DataType::kF16, "A", "B", "C"), {}},
      {"StridedPaddedConv",
       Conv2dOp("conv", 2, 8, 16, 15, 15, 3, 3, DataType::kF16, "I", "W", "O", /*stride=*/2), {}},
      {"Binary", BinaryOp("add", {48, 80}, DataType::kF16, "x", "y", "z"), {}},
      {"Unary", ElementwiseOp("gelu", {30, 64}, DataType::kF16, "x", "y", 8.0), {}},
      {"Reduce", ReduceOp("sum", {96, 200}, DataType::kF16, "x", "y"), {}},
      {"MaxRotatingDims1", MatMulOp("mm1", 48, 96, 80, DataType::kF16, "A", "B", "C"), one_dim},
      {"TinyRelaxation", ElementwiseOp("tiny", {2, 2}, DataType::kF16, "x", "y"), {}},
      {"CappedMidFop", MatMulOp("mmcap", 64, 256, 64, DataType::kF16, "A", "B", "C"), capped},
  };
}

// The pinned checksum of each golden case's search, under the ground truth
// ("/truth") and the fitted cost model ("/fitted").
std::map<std::string, std::uint64_t> GoldenChecksums() {
  return {
    {"MatMul/truth", 0xf0de3cf2048e6d6cULL},
    {"MatMul/fitted", 0xb7749262e98b317fULL},
    {"BatchedMatMul/truth", 0x122f418e973a7336ULL},
    {"BatchedMatMul/fitted", 0x3555f355bff61c8fULL},
    {"StridedPaddedConv/truth", 0x7d3ccd7ee2c1684cULL},
    {"StridedPaddedConv/fitted", 0x96ebffacbfbb0967ULL},
    {"Binary/truth", 0xb6e5b6d64e4931b8ULL},
    {"Binary/fitted", 0x6845d304ffa1eafeULL},
    {"Unary/truth", 0x98e0cdc4f3e15f0aULL},
    {"Unary/fitted", 0x10cd027ca1078a45ULL},
    {"Reduce/truth", 0xf62cc66e391faecaULL},
    {"Reduce/fitted", 0x58975dda44e32e9bULL},
    {"MaxRotatingDims1/truth", 0xaae220eb7418b018ULL},
    {"MaxRotatingDims1/fitted", 0x5a18b1e4406c2449ULL},
    {"TinyRelaxation/truth", 0x9242ce3bd2a3f096ULL},
    {"TinyRelaxation/fitted", 0xb405d06407fca50eULL},
    {"CappedMidFop/truth", 0xf79b0235536a259cULL},
    {"CappedMidFop/fitted", 0x0841cbb93d71e30dULL},
  };
}

// Pins the search output, under both the ground truth and the fitted cost
// model, so a change to enumeration, costing or the frontier that alters any
// plan or prediction fails here rather than only in end-to-end fingerprints.
TEST_F(SearchTest, GoldenFrontierChecksums) {
  const std::map<std::string, std::uint64_t> golden = GoldenChecksums();
  const FittedCostModel fitted = FittedCostModel::Fit(KernelGroundTruth(chip_), 100, 3);
  for (const GoldenCase& c : GoldenBattery()) {
    for (const auto& [suffix, timing] :
         {std::pair<std::string, const TimingSource*>{"/truth", &timing_},
          std::pair<std::string, const TimingSource*>{"/fitted", &fitted}}) {
      const std::string name = c.name + suffix;
      SCOPED_TRACE(name);
      const std::uint64_t sum =
          ResultChecksum(SearchOperatorPlans(c.op, chip_, *timing, c.constraints));
      const auto it = golden.find(name);
      if (it == golden.end()) {
        ADD_FAILURE() << "no golden checksum; got 0x" << std::hex << sum;
        continue;
      }
      EXPECT_EQ(sum, it->second) << "got 0x" << std::hex << sum;
    }
  }
}

// The chunked search, on a 4-worker pool, gives every golden case's pinned
// checksum and the serial search's F_op, filtered and evaluation counts, for
// one chunk, a few, and more chunks than any attempt has F_ops: the chunk
// merge, the cap rule and the relaxation retry are exact.
TEST_F(SearchTest, ChunkedSearchMatchesGoldens) {
  const std::map<std::string, std::uint64_t> golden = GoldenChecksums();
  const FittedCostModel fitted = FittedCostModel::Fit(KernelGroundTruth(chip_), 100, 3);
  obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("compiler.search.evaluations");
  ThreadPool pool(4);
  for (const GoldenCase& c : GoldenBattery()) {
    // Every F_op any relaxation attempt can visit: no parallelism or padding
    // bound at all.
    SearchConstraints unbounded = c.constraints;
    unbounded.parallelism_fraction = 0.0;
    unbounded.padding_threshold = 0.0;
    int max_fops = 0;
    ForEachSearchedFop(c.op, chip_, unbounded, [&](std::span<const std::int64_t>) {
      ++max_fops;
      return true;
    });
    for (const auto& [suffix, timing] :
         {std::pair<std::string, const TimingSource*>{"/truth", &timing_},
          std::pair<std::string, const TimingSource*>{"/fitted", &fitted}}) {
      const std::string name = c.name + suffix;
      std::int64_t before = evaluations.value();
      const IntraOpResult serial = SearchOperatorPlans(c.op, chip_, *timing, c.constraints);
      const std::int64_t serial_evaluations = evaluations.value() - before;
      for (const int chunks : {1, 2, 3, 7, max_fops + 1}) {
        SCOPED_TRACE(name + " chunks=" + std::to_string(chunks));
        std::vector<OperatorSearch> searches;
        searches.emplace_back(c.op, chip_, *timing, c.constraints);
        before = evaluations.value();
        RunSearches(searches, chunks, &pool);
        ASSERT_TRUE(searches.front().done());
        const IntraOpResult chunked = searches.front().TakeResult();
        EXPECT_EQ(ResultChecksum(chunked), golden.at(name));
        EXPECT_EQ(chunked.filtered_count, serial.filtered_count);
        EXPECT_EQ(chunked.fop_count, serial.fop_count);
        EXPECT_EQ(evaluations.value() - before, serial_evaluations);
      }
    }
  }
}

// Walks every choice of temporal options of every F_op the search
// enumerates for `op` under `constraints`, in search order, calling
// `visit(fop, candidates, choice)` until it returns false or
// `constraints.max_evaluations` choices are visited, as the search's cap
// stops it. Returns the choices visited.
std::int64_t ForEachCandidate(
    const Operator& op, const ChipSpec& chip, const TimingSource& timing,
    const SearchConstraints& constraints,
    const std::function<bool(std::span<const std::int64_t>, FopCandidates&,
                             std::span<const std::size_t>)>& visit) {
  std::int64_t visited = 0;
  FopCandidates candidates;
  ForEachSearchedFop(op, chip, constraints, [&](std::span<const std::int64_t> fop) {
    if (!candidates.Reset(op, fop, constraints, timing, chip)) {
      return true;  // Fails the padding filter: no candidates.
    }
    std::vector<std::size_t> choice(candidates.num_tensors(), 0);
    for (;;) {
      if (visited >= constraints.max_evaluations) {
        return false;
      }
      ++visited;
      if (!visit(fop, candidates, choice)) {
        return false;
      }
      std::size_t t = choice.size();
      while (t > 0 && ++choice[t - 1] == candidates.num_options(t - 1)) {
        choice[--t] = 0;
      }
      if (t == 0) {
        return true;
      }
    }
  });
  return visited;
}

// Checks every candidate the search enumerates for `op` under `constraints`:
// ExecutionPlan::Create must accept it, and the base + delta path
// (FopCandidates) must agree with Create(...)->Evaluate(...) on every metric,
// bit for bit. Stops at the first mismatch. Returns the candidates checked and sets
// `fitting` to how many of them fit the chip.
std::int64_t CheckCandidates(const Operator& op, const ChipSpec& chip, const TimingSource& timing,
                             const SearchConstraints& constraints, std::int64_t& fitting) {
  std::vector<std::vector<std::int64_t>> temporal(op.inputs().size() + 1);
  return ForEachCandidate(
      op, chip, timing, constraints,
      [&](std::span<const std::int64_t> fop_span, FopCandidates& candidates,
          std::span<const std::size_t> choice) {
        for (std::size_t t = 0; t < temporal.size(); ++t) {
          const std::span<const std::int64_t> ft = candidates.temporal(t, choice[t]);
          temporal[t].assign(ft.begin(), ft.end());
        }
        const std::vector<std::int64_t> fop(fop_span.begin(), fop_span.end());
        const std::optional<ExecutionPlan> plan = ExecutionPlan::Create(op, fop, temporal);
        if (!plan.has_value()) {
          ADD_FAILURE() << op.name() << ": an enumerated choice fails Create";
          return false;
        }
        const PlanMetrics want = plan->Evaluate(timing, chip);
        const std::int64_t bytes = candidates.PerCoreBytes(choice);
        const std::string got = MetricsString(candidates.Metrics(choice));
        if (bytes != want.per_core_bytes || got != MetricsString(want)) {
          ADD_FAILURE() << plan->DebugString() << "\n  base+delta:" << got << " (" << bytes
                        << " B)\n  Evaluate:  " << MetricsString(want);
          return false;
        }
        fitting += bytes <= chip.core_memory_bytes ? 1 : 0;
        return true;
      });
}

// What one attempt of the search must return, by brute force: how many
// choices ForEachCandidate() visits fit the chip, and their frontier, each
// built by ExecutionPlan::Create() and Evaluate() and folded in enumeration
// order.
struct EnumeratedSearch {
  std::int64_t fitting = 0;
  std::vector<PlanCandidate> frontier;
};

EnumeratedSearch EnumerateSearch(const Operator& op, const ChipSpec& chip,
                                 const TimingSource& timing,
                                 const SearchConstraints& constraints) {
  EnumeratedSearch out;
  std::vector<PlanCandidate> fitting;
  std::vector<std::vector<std::int64_t>> temporal(op.inputs().size() + 1);
  ForEachCandidate(op, chip, timing, constraints,
                   [&](std::span<const std::int64_t> fop, FopCandidates& candidates,
                       std::span<const std::size_t> choice) {
                     if (candidates.PerCoreBytes(choice) > chip.core_memory_bytes) {
                       return true;
                     }
                     for (std::size_t t = 0; t < temporal.size(); ++t) {
                       const std::span<const std::int64_t> ft = candidates.temporal(t, choice[t]);
                       temporal[t].assign(ft.begin(), ft.end());
                     }
                     std::optional<ExecutionPlan> plan = ExecutionPlan::Create(
                         op, std::vector<std::int64_t>(fop.begin(), fop.end()), temporal);
                     EXPECT_TRUE(plan.has_value());
                     if (plan.has_value()) {
                       const PlanMetrics predicted = plan->Evaluate(timing, chip);
                       fitting.push_back(PlanCandidate{*std::move(plan), predicted});
                     }
                     return true;
                   });
  out.fitting = std::ssize(fitting);
  out.frontier = ParetoFrontier(std::move(fitting));
  return out;
}

// Runs the search serially and at 1, 2 and 7 chunks on a 4-worker pool, and
// expects each to give `want`'s filtered count and frontier.
void ExpectSearchesMatch(const Operator& op, const ChipSpec& chip, const TimingSource& timing,
                         const SearchConstraints& constraints, const EnumeratedSearch& want) {
  const std::string frontier = FrontierString(want.frontier);
  const IntraOpResult serial = SearchOperatorPlans(op, chip, timing, constraints);
  EXPECT_EQ(serial.filtered_count, want.fitting);
  EXPECT_EQ(FrontierString(serial.pareto), frontier);
  ThreadPool pool(4);
  for (const int chunks : {1, 2, 7}) {
    SCOPED_TRACE("chunks=" + std::to_string(chunks));
    std::vector<OperatorSearch> searches;
    searches.emplace_back(op, chip, timing, constraints);
    RunSearches(searches, chunks, &pool);
    ASSERT_TRUE(searches.front().done());
    const IntraOpResult chunked = searches.front().TakeResult();
    EXPECT_EQ(chunked.filtered_count, want.fitting);
    EXPECT_EQ(FrontierString(chunked.pareto), frontier);
  }
}

// The 64-core test chip with 5 KiB of each core beside the shift buffer:
// MatMul's all-replicated choice overflows the core under many F_ops that
// still have choices that fit.
ChipSpec SmallCoreChip(ChipSpec chip) {
  chip.core_memory_bytes = chip.shift_buffer_bytes + 5 * 1024;
  return chip;
}

// Pass 1 of the search counts each F_op's funnel from its base and trusts
// every derived option to be valid. For every F_op the search visits for
// `op`, checks that each option FopCandidates derives passes
// TemporalWindowBytes(), and that CountFopFunnel() equals the enumerated
// filter loop: the choice count, the smallest per-core bytes, and the
// all-replicated bytes, which are the largest. Returns how many F_ops have
// an all-replicated choice that overflows the core while some choice fits.
std::int64_t ExpectCountedFunnelMatchesFilterLoop(const Operator& op, const ChipSpec& chip,
                                                  const TimingSource& timing,
                                                  const SearchConstraints& constraints) {
  std::int64_t overflowing = 0;
  FopBase base;
  FopCandidates candidates;
  std::vector<std::size_t> choice;
  ForEachSearchedFop(op, chip, constraints, [&](std::span<const std::int64_t> fop) {
    const bool kept = candidates.Reset(op, fop, constraints, timing, chip);
    EXPECT_EQ(kept, base.Reset(op, fop) && base.padding_ratio >= constraints.padding_threshold);
    if (!kept) {
      return true;
    }
    for (std::size_t t = 0; t < candidates.num_tensors(); ++t) {
      const bool is_output = t + 1 == candidates.num_tensors();
      for (std::size_t o = 0; o < candidates.num_options(t); ++o) {
        if (TemporalWindowBytes(Operand(op, t), is_output, candidates.temporal(t, o),
                                base.tensors[t]) < 0) {
          ADD_FAILURE() << op.name() << ": option " << o << " of tensor " << t
                        << " breaks an alignment rule";
          return false;
        }
      }
    }
    std::int64_t choices = 0;
    std::int64_t smallest = INT64_MAX;
    std::int64_t largest = 0;
    std::int64_t fitting = 0;
    choice.assign(candidates.num_tensors(), 0);
    const std::int64_t replicated = candidates.PerCoreBytes(choice);
    for (;;) {
      const std::int64_t bytes = candidates.PerCoreBytes(choice);
      ++choices;
      smallest = std::min(smallest, bytes);
      largest = std::max(largest, bytes);
      fitting += bytes <= chip.core_memory_bytes ? 1 : 0;
      std::size_t t = choice.size();
      while (t > 0 && ++choice[t - 1] == candidates.num_options(t - 1)) {
        choice[--t] = 0;
      }
      if (t == 0) {
        break;
      }
    }
    const FopFunnel funnel = CountFopFunnel(base, constraints, chip);
    if (funnel.choices != choices || funnel.corner_bytes != smallest ||
        funnel.replicated_bytes != replicated || replicated != largest) {
      ADD_FAILURE() << op.name() << ": counted " << funnel.choices << " choices, corner "
                    << funnel.corner_bytes << " B, replicated " << funnel.replicated_bytes
                    << " B; enumerated " << choices << ", " << smallest << " B, " << replicated
                    << " B (largest " << largest << " B)";
      return false;
    }
    overflowing += replicated > chip.core_memory_bytes && fitting > 0 ? 1 : 0;
    return true;
  });
  return overflowing;
}

TEST_F(SearchTest, CountedFunnelMatchesTheFilterLoop) {
  for (const GoldenCase& c : GoldenBattery()) {
    SCOPED_TRACE(c.name);
    ExpectCountedFunnelMatchesFilterLoop(c.op, chip_, timing_, c.constraints);
  }
  const ChipSpec small = SmallCoreChip(chip_);
  for (const GoldenCase& c : GoldenBattery()) {
    SCOPED_TRACE(c.name + " on " + std::to_string(small.core_memory_bytes) + " B cores");
    const std::int64_t overflowing =
        ExpectCountedFunnelMatchesFilterLoop(c.op, small, timing_, c.constraints);
    if (c.name == "MatMul") {
      EXPECT_GT(overflowing, 0) << "no F_op runs pass 1's filter loop";
    }
  }
  const ChipSpec full_chip = ChipSpec::IpuMk2();
  const GroundTruthTiming full_truth(full_chip);
  for (const std::vector<ModelInfo>* zoo : {&EvaluationModels(), &LlmModels()}) {
    for (const ModelInfo& info : *zoo) {
      const Graph graph = info.build(info.batch_sizes.front());
      const auto op = std::find_if(graph.ops().begin(), graph.ops().end(), [](const Operator& o) {
        return o.kind() == OpKind::kContraction;
      });
      ASSERT_NE(op, graph.ops().end()) << info.name;
      SCOPED_TRACE(info.name + "/" + op->name());
      ExpectCountedFunnelMatchesFilterLoop(*op, full_chip, full_truth, {});
    }
  }
}

// On cores too small for many all-replicated choices, the search (whose
// pass 1 then runs the filter loop) counts exactly the fitting choices and
// returns their frontier, serially and at 1, 2 and 7 chunks.
TEST_F(SearchTest, ChunkedSearchMatchesEnumeratedFrontierOnSmallCores) {
  const ChipSpec small = SmallCoreChip(chip_);
  const Operator op = MatMulOp("mm", 64, 256, 64, DataType::kF16, "A", "B", "C");
  const EnumeratedSearch want = EnumerateSearch(op, small, timing_, {});
  ASSERT_FALSE(want.frontier.empty());
  ExpectSearchesMatch(op, small, timing_, {}, want);
}

// A timing source under which every step costs the same and shifts are free,
// so every one-step F_op of an elementwise op costs the same, while the
// seconds floor falls as the innermost slice grows: so F_ops tie exactly on
// (bytes, seconds), and a later-enumerated F_op with a longer innermost slice
// has the lower floor.
class FlatStepTiming final : public TimingSource {
 public:
  static constexpr double kStepSeconds = 1e-6;
  double SubTaskSeconds(const SubTaskShape&) const override { return kStepSeconds; }
  double ShiftSeconds(std::int64_t) const override { return 0.0; }
  double SplitSecondsFloor(const SubTaskShape& floor, std::int64_t steps) const override {
    return static_cast<double>(steps) * kStepSeconds -
           1e-9 * static_cast<double>(floor.inner_length);
  }
  double ShiftSecondsFloor(std::int64_t, std::int64_t) const override { return 0.0; }
};

// Exact ties across F_ops: on 8 cores, add{8, 8} has the F_ops (1,8), (2,4),
// (4,2) and (8,1), in that enumeration order, each with one choice of the
// same bytes and seconds. Pass 2 visits them in floor order, (8,1) first, so
// the enumeration-order winner (1,8) arrives last; it must still be the one
// plan on the frontier, serially and at 1, 2 and 7 chunks.
TEST_F(SearchTest, ChunkedSearchKeepsTheEarlierFopOfAnExactTie) {
  const ChipSpec chip = ChipSpec::ScaledIpu(8);
  const FlatStepTiming timing;
  const Operator op = BinaryOp("add", {8, 8}, DataType::kF16, "x", "y", "z");
  const SearchConstraints constraints;
  std::vector<std::vector<std::int64_t>> fops;
  std::vector<double> floors;
  FopCandidates candidates;
  ForEachSearchedFop(op, chip, constraints, [&](std::span<const std::int64_t> fop) {
    fops.emplace_back(fop.begin(), fop.end());
    EXPECT_TRUE(candidates.Reset(op, fop, constraints, timing, chip));
    floors.push_back(candidates.SecondsFloor());
    return true;
  });
  ASSERT_EQ(fops, (std::vector<std::vector<std::int64_t>>{{1, 8}, {2, 4}, {4, 2}, {8, 1}}));
  ASSERT_TRUE(std::is_sorted(floors.rbegin(), floors.rend()) && floors.back() < floors.front())
      << "the later F_ops must have the lower floors";

  const EnumeratedSearch want = EnumerateSearch(op, chip, timing, constraints);
  ASSERT_EQ(want.frontier.size(), 1u);
  ASSERT_EQ(want.frontier.front().plan.fop(), fops.front());
  ASSERT_EQ(want.frontier.front().predicted.total_seconds(), FlatStepTiming::kStepSeconds);
  ExpectSearchesMatch(op, chip, timing, constraints, want);
}

// The "CappedMidFop" golden case pins a cap that lands inside an F_op: some
// F_op has choices on both sides of it. That F_op's seconds floor is below
// an earlier F_op's, so pass 2 reaches it out of enumeration order, and the
// search must still count and cost only its choices before the cap: its
// filtered count and frontier are those of exactly the first kMidFopCap
// choices, serially and at 1, 2 and 7 chunks, and that frontier differs from
// the one with all the F_op's choices.
TEST_F(SearchTest, MidFopCapLandsInsideAnFop) {
  const std::vector<GoldenCase> battery = GoldenBattery();
  const GoldenCase& c = battery.back();
  ASSERT_EQ(c.name, "CappedMidFop");
  FopCandidates candidates;
  std::int64_t before = 0;
  bool inside = false;
  double highest_floor = 0.0;  // Of the F_ops before the capped one.
  double capped_floor = 0.0;
  ForEachSearchedFop(c.op, chip_, c.constraints, [&](std::span<const std::int64_t> fop) {
    if (!candidates.Reset(c.op, fop, c.constraints, timing_, chip_)) {
      return true;
    }
    std::int64_t choices = 1;
    for (std::size_t t = 0; t < candidates.num_tensors(); ++t) {
      choices *= static_cast<std::int64_t>(candidates.num_options(t));
    }
    inside = before < kMidFopCap && kMidFopCap < before + choices;
    before += choices;
    if (before < kMidFopCap) {
      highest_floor = std::max(highest_floor, candidates.SecondsFloor());
      return true;
    }
    capped_floor = candidates.SecondsFloor();
    return false;
  });
  ASSERT_TRUE(inside) << "the cap falls between F_ops after " << before << " choices";
  EXPECT_LT(capped_floor, highest_floor) << "pass 2 reaches the capped F_op in enumeration order";

  const EnumeratedSearch want = EnumerateSearch(c.op, chip_, timing_, c.constraints);
  SearchConstraints whole_fop = c.constraints;
  whole_fop.max_evaluations = before;
  EXPECT_NE(FrontierString(EnumerateSearch(c.op, chip_, timing_, whole_fop).frontier),
            FrontierString(want.frontier))
      << "the capped F_op's later choices do not change the frontier";
  ExpectSearchesMatch(c.op, chip_, timing_, c.constraints, want);
}

// Checks every candidate SearchOperatorPlans(op) costs, relaxed attempts
// included, and that they are exactly the ones it counts.
void ExpectSearchCandidatesMatchCreate(const Operator& op, const ChipSpec& chip,
                                       const TimingSource& timing,
                                       const SearchConstraints& constraints) {
  obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("compiler.search.evaluations");
  const std::int64_t before = evaluations.value();
  SearchOperatorPlans(op, chip, timing, constraints);
  const std::int64_t searched = evaluations.value() - before;

  std::int64_t checked = 0;
  SearchConstraints active = constraints;
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::int64_t fitting = 0;
    checked += CheckCandidates(op, chip, timing, active, fitting);
    if (fitting > 0 || ::testing::Test::HasFailure()) {
      break;
    }
    active.parallelism_fraction *= 0.5;  // SearchOperatorPlans' relaxation.
    active.padding_threshold *= 0.8;
  }
  if (!::testing::Test::HasFailure()) {
    EXPECT_GT(checked, 0);
    EXPECT_EQ(checked, searched) << "the check must cover exactly the searched candidates";
  }
}

// The search filters and costs candidates from a per-F_op base plus
// per-option deltas, never building their plans: pin that this agrees with
// building each plan, under both timing sources, on the golden battery and on
// one operator of each zoo model (its first contraction) on a full chip.
TEST_F(SearchTest, CandidateMetricsMatchCreateEvaluate) {
  const FittedCostModel fitted = FittedCostModel::Fit(KernelGroundTruth(chip_), 100, 3);
  auto check = [&](const std::string& name, const Operator& op, const ChipSpec& chip,
                   const SearchConstraints& constraints) {
    for (const TimingSource* timing : {static_cast<const TimingSource*>(&timing_),
                                       static_cast<const TimingSource*>(&fitted)}) {
      SCOPED_TRACE(name + (timing == &timing_ ? "/truth" : "/fitted"));
      ExpectSearchCandidatesMatchCreate(op, chip, *timing, constraints);
    }
    return !HasFailure();
  };
  for (const GoldenCase& c : GoldenBattery()) {
    if (!check(c.name, c.op, chip_, c.constraints)) {
      return;
    }
  }
  const ChipSpec full_chip = ChipSpec::IpuMk2();
  for (const std::vector<ModelInfo>* zoo : {&EvaluationModels(), &LlmModels()}) {
    for (const ModelInfo& info : *zoo) {
      const Graph graph = info.build(info.batch_sizes.front());
      const Operator* pick = &graph.ops().front();
      for (const Operator& op : graph.ops()) {
        if (op.kind() == OpKind::kContraction) {
          pick = &op;
          break;
        }
      }
      if (!check(info.name + "/" + pick->name(), *pick, full_chip, {})) {
        return;
      }
    }
  }
}

// The search skips an F_op's cost loop on FopCandidates::SecondsFloor(), and
// pass 2 drops a single choice unpriced on FopCandidates::Floor(). So the
// F_op's floor must bound every choice that passes the filters, and each
// choice's floor must bound its seconds with the step count the choice is
// costed with. Returns the choices visited.
std::int64_t ExpectSecondsFloorBounds(const Operator& op, const ChipSpec& chip,
                                      const TimingSource& timing,
                                      const SearchConstraints& constraints) {
  return ForEachCandidate(
      op, chip, timing, constraints,
      [&](std::span<const std::int64_t>, FopCandidates& candidates,
          std::span<const std::size_t> choice) {
        const FopCandidates::ChoiceFloor floor = candidates.Floor(choice);
        const PlanMetrics m = candidates.Metrics(choice);
        const double seconds = m.total_seconds();
        if (floor.steps != m.steps || seconds < floor.seconds) {
          ADD_FAILURE() << op.name() << ": a choice of " << m.steps << " steps costs " << seconds
                        << " s; its floor has " << floor.steps << " steps and " << floor.seconds
                        << " s";
          return false;
        }
        if (candidates.PerCoreBytes(choice) <= chip.core_memory_bytes &&
            seconds < candidates.SecondsFloor()) {
          ADD_FAILURE() << op.name() << ": a choice costs " << seconds << " s, under its F_op's "
                        << candidates.SecondsFloor() << " s floor";
          return false;
        }
        return true;
      });
}

// Checked under every timing source the search runs on: the ground truth
// (noise, conv black box), the 240-sample fit (a negative gather bytes
// coefficient) and the 100-sample seed-3 fit the golden checksums use
// (negative conv and reduce bytes coefficients); on every F_op of the golden
// battery, of the battery on the small-core chip, and of one contraction per
// zoo and LLM model on a full chip.
TEST_F(SearchTest, SecondsFloorBoundsEveryPassedChoice) {
  auto check = [&](const std::string& name, const Operator& op, const ChipSpec& chip,
                   const SearchConstraints& constraints) {
    const KernelGroundTruth truth(chip);
    const GroundTruthTiming truth_timing(truth);
    const FittedCostModel fitted240 = FittedCostModel::Fit(truth, 240, 17);
    const FittedCostModel fitted100 = FittedCostModel::Fit(truth, 100, 3);
    for (const auto& [source, timing] :
         {std::pair<const char*, const TimingSource*>{"truth", &truth_timing},
          std::pair<const char*, const TimingSource*>{"fitted240", &fitted240},
          std::pair<const char*, const TimingSource*>{"fitted100", &fitted100}}) {
      SCOPED_TRACE(name + "/" + source);
      EXPECT_GT(ExpectSecondsFloorBounds(op, chip, *timing, constraints), 0);
    }
    return !HasFailure();
  };
  for (const ChipSpec& chip : {chip_, SmallCoreChip(chip_)}) {
    for (const GoldenCase& c : GoldenBattery()) {
      if (!check(c.name + " on " + std::to_string(chip.core_memory_bytes) + " B cores", c.op,
                 chip, c.constraints)) {
        return;
      }
    }
  }
  const ChipSpec full_chip = ChipSpec::IpuMk2();
  for (const std::vector<ModelInfo>* zoo : {&EvaluationModels(), &LlmModels()}) {
    for (const ModelInfo& info : *zoo) {
      const Graph graph = info.build(info.batch_sizes.front());
      const auto op = std::find_if(graph.ops().begin(), graph.ops().end(), [](const Operator& o) {
        return o.kind() == OpKind::kContraction;
      });
      ASSERT_NE(op, graph.ops().end()) << info.name;
      if (!check(info.name + "/" + op->name(), *op, full_chip, {})) {
        return;
      }
    }
  }
}

TEST(ParetoFrontierTest, FiltersDominatedPlans) {
  Operator op = MatMulOp("mm", 4, 4, 4, DataType::kF16, "A", "B", "C");
  auto plan = ExecutionPlan::Create(op, {1, 1, 1}, {{1, 1}, {1, 1}, {1, 1}});
  ASSERT_TRUE(plan.has_value());
  auto make = [&](std::int64_t bytes, double seconds) {
    PlanCandidate c;
    c.plan = *plan;
    c.predicted.per_core_bytes = bytes;
    c.predicted.compute_seconds = seconds;
    return c;
  };
  auto frontier = ParetoFrontier({make(100, 5.0), make(200, 5.0), make(150, 4.0),
                                  make(300, 1.0), make(50, 10.0), make(400, 2.0)});
  ASSERT_EQ(frontier.size(), 4u);
  EXPECT_EQ(frontier[0].predicted.per_core_bytes, 50);
  EXPECT_EQ(frontier[1].predicted.per_core_bytes, 100);
  EXPECT_EQ(frontier[2].predicted.per_core_bytes, 150);
  EXPECT_EQ(frontier[3].predicted.per_core_bytes, 300);
}

// Of candidates tied exactly on (bytes, seconds) the frontier keeps the one
// that came first, whatever the input size: 64 candidates with distinct
// F_ops fall into 16 tie groups of 4, each group's members 16 apart.
TEST(ParetoFrontierTest, ExactTiesKeepTheFirstCandidate) {
  Operator op = MatMulOp("mm", 8, 8, 8, DataType::kF16, "A", "B", "C");
  constexpr int kCandidates = 64;
  constexpr int kGroups = 16;
  auto group = [](int i) { return (i * 7) % kGroups; };
  std::vector<PlanCandidate> candidates;
  for (int i = 0; i < kCandidates; ++i) {
    const std::vector<std::int64_t> fop = {1 << (i % 4), 1 << (i / 4 % 4), 1 << (i / 16)};
    auto plan = ExecutionPlan::Create(op, fop, {{1, 1}, {1, 1}, {1, 1}});
    ASSERT_TRUE(plan.has_value()) << i;
    PlanCandidate c;
    c.plan = *std::move(plan);
    c.predicted.per_core_bytes = 100 + 10 * group(i);
    c.predicted.compute_seconds = 64.0 - group(i);
    candidates.push_back(std::move(c));
  }
  std::vector<std::vector<std::int64_t>> first_fop(kGroups);
  for (const PlanCandidate& c : candidates) {
    std::vector<std::int64_t>& first = first_fop[(c.predicted.per_core_bytes - 100) / 10];
    if (first.empty()) {
      first = c.plan.fop();
    }
  }
  const std::vector<PlanCandidate> frontier = ParetoFrontier(candidates);
  ASSERT_EQ(frontier.size(), static_cast<std::size_t>(kGroups));
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_EQ(frontier[g].predicted.per_core_bytes, 100 + 10 * g);
    EXPECT_EQ(frontier[g].plan.fop(), first_fop[g]) << "tie group " << g;
  }
}

}  // namespace
}  // namespace t10
