// Tests for t10-lint (tools/lint_engine.h): exact findings on the fixture
// files under tests/lint_fixtures/, rule gating by path, NOLINT suppression
// semantics, the observability name registry (src/obs/names.h), and the
// self-lint — the real tree under src/, tools/, bench/ and examples/ must
// stay clean under its own linter.

#include "tools/lint_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/names.h"

namespace t10 {
namespace lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(T10_SOURCE_DIR) + "/tests/lint_fixtures/" + name;
}

std::vector<std::pair<int, std::string>> LinesAndRules(const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  out.reserve(findings.size());
  for (const Finding& finding : findings) {
    out.emplace_back(finding.line, finding.rule);
  }
  return out;
}

std::string Dump(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& finding : findings) {
    out += finding.Format() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fixture files: each produces an exact (line, rule) list.
// ---------------------------------------------------------------------------

struct FixtureCase {
  const char* file;
  std::vector<std::pair<int, std::string>> expected;
};

TEST(LintFixtureTest, FixturesProduceExactFindings) {
  const std::vector<FixtureCase> cases = {
      {"clean.cc", {}},
      {"raw_mutex.cc",
       {{4, "lint.sync.raw-primitive"},
        {8, "lint.sync.raw-primitive"},
        {11, "lint.sync.raw-primitive"},
        {11, "lint.sync.raw-primitive"}}},
      {"obs_names.cc",
       {{13, "lint.obs.name-grammar"},
        {14, "lint.obs.unregistered-name"},
        {20, "lint.obs.unregistered-name"}}},
      {"nolint.cc",
       {{6, "lint.nolint.missing-reason"},
        {7, "lint.nolint.missing-reason"},
        {10, "lint.sync.raw-primitive"}}},
  };
  for (const FixtureCase& fixture : cases) {
    SCOPED_TRACE(fixture.file);
    const std::vector<Finding> findings = LintPaths({FixturePath(fixture.file)});
    EXPECT_EQ(LinesAndRules(findings), fixture.expected) << Dump(findings);
  }
}

TEST(LintFixtureTest, DirectoryWalkAggregatesEveryFixture) {
  const std::vector<Finding> findings =
      LintPaths({std::string(T10_SOURCE_DIR) + "/tests/lint_fixtures"});
  std::map<std::string, int> by_rule;
  for (const Finding& finding : findings) {
    ++by_rule[finding.rule];
  }
  EXPECT_EQ(by_rule["lint.sync.raw-primitive"], 5) << Dump(findings);
  EXPECT_EQ(by_rule["lint.nolint.missing-reason"], 2);
  EXPECT_EQ(by_rule["lint.obs.name-grammar"], 1);
  EXPECT_EQ(by_rule["lint.obs.unregistered-name"], 2);
  EXPECT_EQ(findings.size(), 10u);
}

// ---------------------------------------------------------------------------
// Path gating and token boundaries (inline sources).
// ---------------------------------------------------------------------------

TEST(LintEngineTest, ServeCheckFiresOnlyUnderSrcServe) {
  const std::string contents = "void Handle() { T10_CHECK(ok); }\n";
  const std::vector<Finding> serve = LintFile("src/serve/handler.cc", contents);
  ASSERT_EQ(serve.size(), 1u) << Dump(serve);
  EXPECT_EQ(serve[0].rule, "lint.serve.check");
  EXPECT_EQ(serve[0].line, 1);
  EXPECT_TRUE(LintFile("src/core/compiler.cc", contents).empty());
}

TEST(LintEngineTest, ServeCheckMatchesWholeTokensOnly) {
  EXPECT_TRUE(LintFile("src/serve/x.cc",
                       "MY_T10_CHECK(v);\n"
                       "T10_CHECK_FAILED_COUNT(y);\n")
                  .empty());
  const std::vector<Finding> eq = LintFile("src/serve/x.cc", "T10_CHECK_EQ(a, b);\n");
  ASSERT_EQ(eq.size(), 1u);
  EXPECT_EQ(eq[0].rule, "lint.serve.check");
}

TEST(LintEngineTest, BannedCallsFireOnlyUnderSrc) {
  const std::string contents = "int Roll() { return rand(); }\n";
  const std::vector<Finding> src = LintFile("src/core/search.cc", contents);
  ASSERT_EQ(src.size(), 1u) << Dump(src);
  EXPECT_EQ(src[0].rule, "lint.determinism.banned-call");
  EXPECT_TRUE(LintFile("tools/gen.cc", contents).empty());
}

TEST(LintEngineTest, BannedCallBoundariesSkipMembersAndTypes) {
  EXPECT_TRUE(LintFile("src/core/clock.cc",
                       "auto t = clock.time();\n"
                       "std::chrono::steady_clock::time_point deadline;\n"
                       "int mytime(int x);\n"
                       "int v = mytime(3);\n")
                  .empty());
  const std::vector<Finding> qualified =
      LintFile("src/core/clock.cc", "auto now = std::time(nullptr);\n");
  ASSERT_EQ(qualified.size(), 1u);
  EXPECT_EQ(qualified[0].rule, "lint.determinism.banned-call");
}

TEST(LintEngineTest, CommentsAndStringsNeverFire) {
  EXPECT_TRUE(LintFile("src/serve/doc.cc",
                       "// T10_CHECK(x) would abort; std::mutex is banned here.\n"
                       "const char* kMsg = \"call rand() through std::mutex\";\n"
                       "/* std::condition_variable\n   rand() */\n")
                  .empty());
}

TEST(LintEngineTest, NolintSuppressesTheNamedRuleOnItsLine) {
  EXPECT_TRUE(
      LintFile("src/serve/boot.cc",
               "T10_CHECK(cores > 0);  // NOLINT(lint.serve.check): startup invariant.\n")
          .empty());
  const std::vector<Finding> wrong = LintFile(
      "src/serve/boot.cc",
      "T10_CHECK(cores > 0);  // NOLINT(lint.sync.raw-primitive): wrong category.\n");
  ASSERT_EQ(wrong.size(), 1u) << Dump(wrong);
  EXPECT_EQ(wrong[0].rule, "lint.serve.check");
}

TEST(LintEngineTest, JournalLogArgumentsAreChecked) {
  const std::string good =
      "obs::Log(journal, obs::Severity::kInfo, \"serve\", \"request.shed\", id, epoch, d);\n";
  EXPECT_TRUE(LintFile("src/serve/log.cc", good).empty());

  const std::vector<Finding> bad_subsystem = LintFile(
      "src/serve/log.cc",
      "obs::Log(journal, obs::Severity::kInfo, \"mars\", \"request.shed\", id, epoch, d);\n");
  ASSERT_EQ(bad_subsystem.size(), 1u) << Dump(bad_subsystem);
  EXPECT_EQ(bad_subsystem[0].rule, "lint.obs.unregistered-name");

  const std::vector<Finding> bad_event = LintFile(
      "src/serve/log.cc",
      "obs::Log(journal, obs::Severity::kInfo, \"serve\", \"request.fixture_missing\", id, "
      "epoch, d);\n");
  ASSERT_EQ(bad_event.size(), 1u) << Dump(bad_event);
  EXPECT_EQ(bad_event[0].rule, "lint.obs.unregistered-name");
}

TEST(LintEngineTest, MultiLineCallsAnchorToTheArgumentStart) {
  const std::string contents =
      "void F(Registry& m) {\n"
      "  m.GetCounter(\n"
      "      \"serve.fixture.unknown\");\n"
      "}\n";
  const std::vector<Finding> findings = LintFile("src/core/use.cc", contents);
  ASSERT_EQ(findings.size(), 1u) << Dump(findings);
  EXPECT_EQ(findings[0].rule, "lint.obs.unregistered-name");
  // The argument begins right after the open paren on line 2.
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintEngineTest, SyncSourcesAreExemptFromTheRawPrimitiveRule) {
  const std::string contents = "std::mutex raw_;\n";
  EXPECT_TRUE(LintFile("src/util/sync.h", contents).empty());
  EXPECT_TRUE(LintFile("src/util/sync.cc", contents).empty());
  EXPECT_FALSE(LintFile("src/util/thread_pool.h", contents).empty());
}

TEST(LintEngineTest, MissingPathYieldsAnIoFinding) {
  const std::vector<Finding> findings = LintPaths({"/no/such/t10/path"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lint.io.unreadable");
  EXPECT_EQ(findings[0].line, 0);
}

TEST(LintEngineTest, FindingFormatMirrorsVerifyDiagnostics) {
  const Finding with_hint{"src/a.cc", 7, "lint.serve.check", "T10_CHECK aborts",
                          "return Status"};
  EXPECT_EQ(with_hint.Format(),
            "src/a.cc:7: error[lint.serve.check] T10_CHECK aborts (hint: return Status)");
  const Finding bare{"src/a.cc", 9, "lint.io.unreadable", "cannot open file", ""};
  EXPECT_EQ(bare.Format(), "src/a.cc:9: error[lint.io.unreadable] cannot open file");
}

// ---------------------------------------------------------------------------
// The observability name registry.
// ---------------------------------------------------------------------------

TEST(NamesTest, GrammarRequiresLowercaseDottedSegments) {
  EXPECT_TRUE(obs::MatchesNameGrammar("serve.shed.count"));
  EXPECT_TRUE(obs::MatchesNameGrammar("a.b"));
  EXPECT_TRUE(obs::MatchesNameGrammar("serve.queue_wait.seconds"));
  EXPECT_FALSE(obs::MatchesNameGrammar("serve"));         // One segment.
  EXPECT_FALSE(obs::MatchesNameGrammar("Serve.count"));   // Uppercase.
  EXPECT_FALSE(obs::MatchesNameGrammar("serve..count"));  // Empty segment.
  EXPECT_FALSE(obs::MatchesNameGrammar(".serve.count"));  // Leading dot.
  EXPECT_FALSE(obs::MatchesNameGrammar("serve.count."));  // Trailing dot.
  EXPECT_FALSE(obs::MatchesNameGrammar("serve.bad-char"));
  EXPECT_FALSE(obs::MatchesNameGrammar(""));
}

TEST(NamesTest, WildcardMatchesExactlyOneSegment) {
  EXPECT_TRUE(obs::IsRegisteredMetricName("compiler.pass.canonicalize.runs"));
  EXPECT_TRUE(obs::IsRegisteredMetricName("compiler.pass.fixture_pass.seconds"));
  EXPECT_FALSE(obs::IsRegisteredMetricName("compiler.pass.a.b.runs"));  // Two segments.
  EXPECT_FALSE(obs::IsRegisteredMetricName("compiler.pass.runs"));      // Zero segments.
}

TEST(NamesTest, RegistrationLookups) {
  EXPECT_TRUE(obs::IsRegisteredMetricName("serve.shed.count"));
  EXPECT_FALSE(obs::IsRegisteredMetricName("serve.invented.count"));
  EXPECT_TRUE(obs::IsRegisteredMetricName("router.cluster.repartition.count"));
  EXPECT_TRUE(obs::IsRegisteredMetricName("router.cluster.repartition.seconds"));
  EXPECT_TRUE(obs::IsRegisteredJournalEvent("request.shed"));
  EXPECT_FALSE(obs::IsRegisteredJournalEvent("request.invented"));
  EXPECT_TRUE(obs::IsRegisteredJournalEvent("router.cluster.repartition"));
  EXPECT_TRUE(obs::IsRegisteredJournalEvent("router.cluster.hot_swap"));
  EXPECT_TRUE(obs::IsRegisteredJournalEvent("server.storage_released"));
  EXPECT_TRUE(obs::IsRegisteredJournalSubsystem("serve"));
  EXPECT_FALSE(obs::IsRegisteredJournalSubsystem("mars"));
}

TEST(NamesTest, RegisteredTablesAreSorted) {
  const std::vector<std::string>& metrics = obs::RegisteredMetricNames();
  EXPECT_FALSE(metrics.empty());
  EXPECT_TRUE(std::is_sorted(metrics.begin(), metrics.end()));
  EXPECT_NE(std::find(metrics.begin(), metrics.end(), "serve.latency.seconds"), metrics.end());
  const std::vector<std::string>& events = obs::RegisteredJournalEvents();
  EXPECT_FALSE(events.empty());
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end()));
  EXPECT_NE(std::find(events.begin(), events.end(), "failover.hot_swap"), events.end());
}

// ---------------------------------------------------------------------------
// Self-lint: the tree must stay clean under its own linter. This is the
// test-suite twin of the CI lint-invariants job.
// ---------------------------------------------------------------------------

TEST(SelfLintTest, RepositoryIsCleanUnderItsOwnLinter) {
  const std::string root = T10_SOURCE_DIR;
  const std::vector<Finding> findings =
      LintPaths({root + "/src", root + "/tools", root + "/bench", root + "/examples"});
  for (const Finding& finding : findings) {
    ADD_FAILURE() << finding.Format();
  }
  EXPECT_TRUE(findings.empty());
}

}  // namespace
}  // namespace lint
}  // namespace t10
