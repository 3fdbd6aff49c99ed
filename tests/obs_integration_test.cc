// End-to-end observability check: runs the real t10c binary with
// --demo --metrics --trace and validates both outputs — the metrics
// snapshot must contain compiler phase timings, search eval counts, cache
// hit/miss counts and per-core traffic totals; the trace must contain
// Perfetto "C" counter events alongside the "X" spans.
//
// The binary path is injected by CMake as T10_T10C_BIN.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace t10 {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

class T10cObservability : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest runs each test of this suite as its own process, in parallel:
    // per-process file names keep one run from reading another's half-written
    // output.
    const std::string prefix = ::testing::TempDir() + "/t10c_" + std::to_string(getpid());
    metrics_path_ = new std::string(prefix + "_metrics.json");
    trace_path_ = new std::string(prefix + "_trace.json");
    const std::string command = std::string(T10_T10C_BIN) + " --demo --metrics " +
                                *metrics_path_ + " --trace " + *trace_path_ + " > /dev/null";
    exit_code_ = std::system(command.c_str());
  }
  static void TearDownTestSuite() {
    std::remove(metrics_path_->c_str());
    std::remove(trace_path_->c_str());
  }

  static std::string* metrics_path_;
  static std::string* trace_path_;
  static int exit_code_;
};

std::string* T10cObservability::metrics_path_ = nullptr;
std::string* T10cObservability::trace_path_ = nullptr;
int T10cObservability::exit_code_ = -1;

TEST_F(T10cObservability, CompileSucceeds) { EXPECT_EQ(exit_code_, 0); }

TEST_F(T10cObservability, MetricsSnapshotHasCompilerPhaseTimings) {
  const std::string json = ReadFile(*metrics_path_);
  EXPECT_NE(json.find("compiler.pass.fit_cost_model.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.pass.intra_op_search.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.phase.enumeration.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.phase.filtering.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.phase.cost_eval.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.phase.pareto.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.pass.inter_op_reconcile.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.phase.materialize.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.phase.memory_plan.seconds"), std::string::npos);
  EXPECT_NE(json.find("compiler.phase.total.seconds"), std::string::npos);
}

TEST_F(T10cObservability, MetricsSnapshotHasSearchAndCacheCounts) {
  const std::string json = ReadFile(*metrics_path_);
  EXPECT_NE(json.find("compiler.search.evaluations"), std::string::npos);
  EXPECT_NE(json.find("compiler.search.filtered_plans"), std::string::npos);
  EXPECT_NE(json.find("compiler.cache.hits"), std::string::npos);
  EXPECT_NE(json.find("compiler.cache.misses"), std::string::npos);
  // The demo MLP has three ops with distinct signatures: all misses.
  EXPECT_NE(json.find("\"compiler.cache.misses\": 3"), std::string::npos);
}

TEST_F(T10cObservability, MetricsSnapshotHasPerCoreTrafficTotals) {
  const std::string json = ReadFile(*metrics_path_);
  EXPECT_NE(json.find("compiler.model.traffic.shift_bytes_per_core"), std::string::npos);
  EXPECT_NE(json.find("compiler.model.traffic.setup_bytes_per_core"), std::string::npos);
  EXPECT_NE(json.find("compiler.model.traffic.transition_bytes_per_core"), std::string::npos);
}

TEST_F(T10cObservability, TraceContainsCounterEvents) {
  const std::string json = ReadFile(*trace_path_);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("memory bytes/core"), std::string::npos);
  EXPECT_NE(json.find("link bytes/core (cumulative)"), std::string::npos);
  EXPECT_NE(json.find("link utilisation"), std::string::npos);
}

TEST_F(T10cObservability, RejectsUnknownFlags) {
  const std::string command =
      std::string(T10_T10C_BIN) + " --demo --no-such-flag > /dev/null 2>&1";
  EXPECT_NE(std::system(command.c_str()), 0);
}

TEST_F(T10cObservability, RejectsCoresWithoutValue) {
  const std::string command = std::string(T10_T10C_BIN) + " --cores > /dev/null 2>&1";
  EXPECT_NE(std::system(command.c_str()), 0);
}

TEST_F(T10cObservability, HelpExitsZero) {
  const std::string command = std::string(T10_T10C_BIN) + " --help > /dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0);
}

}  // namespace
}  // namespace t10
