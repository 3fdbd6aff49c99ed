// EventJournal (flight-recorder ring) tests: ordering, wraparound eviction,
// concurrent writers, the null-safe Log helper, and the post-mortem JSON the
// server dumps on failover (the CI chaos job parses it with jq).

#include "src/obs/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/span.h"
#include "src/util/strings.h"

namespace t10 {
namespace obs {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(EventJournalTest, AppendsInOrderWithMetadata) {
  EventJournal journal(8);
  journal.Append(Severity::kInfo, "serve", "server.start", -1, 0);
  journal.Append(Severity::kWarn, "health", "health.probe", -1, -1, "1 failed core");
  journal.Append(Severity::kError, "exec", "exec.data_loss", 7, 1);

  const std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].event, "server.start");
  EXPECT_EQ(events[0].severity, Severity::kInfo);
  EXPECT_EQ(events[0].plan_epoch, 0);
  EXPECT_EQ(events[1].event, "health.probe");
  EXPECT_EQ(events[1].detail, "1 failed core");
  EXPECT_EQ(events[2].request_id, 7);
  EXPECT_EQ(events[2].plan_epoch, 1);
  // Sequence numbers ascend and timestamps are monotonic non-decreasing.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
    EXPECT_GE(events[i].time_seconds, events[i - 1].time_seconds);
  }
  EXPECT_EQ(journal.total_appended(), 3u);
}

TEST(EventJournalTest, RingWrapsKeepingTheNewestEvents) {
  EventJournal journal(8);
  for (int i = 0; i < 20; ++i) {
    journal.Append(Severity::kInfo, "test", NumberedName("event.", i));
  }
  const std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 8u);  // Ring capacity, not total appended.
  EXPECT_EQ(journal.total_appended(), 20u);
  // The survivors are exactly the last 8, oldest first.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].event, NumberedName("event.", 12 + i));
  }
}

TEST(EventJournalTest, ConcurrentWritersLoseNothingBeforeWrap) {
  // With capacity >= total appends, every event survives and seqs are unique.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  EventJournal journal(kThreads * kPerThread);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append(Severity::kInfo, NumberedName("t", t), NumberedName("e", i), t, i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::uint64_t> seqs;
  for (const Event& event : events) {
    EXPECT_TRUE(seqs.insert(event.seq).second) << "duplicate seq " << event.seq;
  }
}

TEST(EventJournalTest, ConcurrentWritersUnderWrapStayConsistent) {
  // Hammer a tiny ring from many threads: the snapshot must stay internally
  // consistent (sorted unique seqs, size <= capacity). TSan runs this too.
  EventJournal journal(16);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal] {
      for (int i = 0; i < kPerThread; ++i) {
        journal.Append(Severity::kWarn, "stress", "event", i);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::vector<Event> events = journal.Snapshot();
  EXPECT_LE(events.size(), 16u);
  EXPECT_GE(events.size(), 1u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
  EXPECT_EQ(journal.total_appended(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(EventJournalTest, LogHelperIsNullSafe) {
  Log(nullptr, Severity::kError, "serve", "nothing");  // Must not crash.
  EventJournal journal(4);
  Log(&journal, Severity::kInfo, "serve", "something", 3, 1, "detail");
  const std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].event, "something");
  EXPECT_EQ(events[0].request_id, 3);
}

TEST(EventJournalTest, SeverityNames) {
  EXPECT_STREQ(SeverityName(Severity::kDebug), "debug");
  EXPECT_STREQ(SeverityName(Severity::kInfo), "info");
  EXPECT_STREQ(SeverityName(Severity::kWarn), "warn");
  EXPECT_STREQ(SeverityName(Severity::kError), "error");
}

TEST(PostMortemTest, JsonContainsEventsAndOpenSpans) {
  EventJournal journal(8);
  journal.Append(Severity::kWarn, "health", "health.probe", -1, -1, "new damage");
  journal.Append(Severity::kInfo, "serve", "failover.hot_swap", -1, 1);

  Tracer tracer;
  const TraceContext root = tracer.Root(42, "req:42");
  Span open = StartSpan(root, "execute");
  open.AddAttr("worker", "1");

  const std::string json = PostMortemJson("failover: hot-swapped epoch 1", &journal, &tracer);
  EXPECT_TRUE(Contains(json, "\"reason\""));
  EXPECT_TRUE(Contains(json, "failover: hot-swapped epoch 1"));
  EXPECT_TRUE(Contains(json, "\"events\""));
  EXPECT_TRUE(Contains(json, "health.probe"));
  EXPECT_TRUE(Contains(json, "failover.hot_swap"));
  EXPECT_TRUE(Contains(json, "new damage"));
  EXPECT_TRUE(Contains(json, "\"open_spans\""));
  EXPECT_TRUE(Contains(json, "\"execute\""));
  EXPECT_TRUE(Contains(json, "req:42"));
  EXPECT_TRUE(Contains(json, "\"worker\""));
  // The probe event precedes the hot swap in the serialized order.
  EXPECT_LT(json.find("health.probe"), json.find("failover.hot_swap"));
}

TEST(PostMortemTest, NullSourcesEmitEmptyLists) {
  const std::string json = PostMortemJson("reason", nullptr, nullptr);
  EXPECT_TRUE(Contains(json, "\"events\""));
  EXPECT_TRUE(Contains(json, "\"open_spans\""));
  EXPECT_TRUE(Contains(json, "\"reason\""));
}

TEST(PostMortemTest, DumpWritesFileAndRejectsBadPath) {
  EventJournal journal(4);
  journal.Append(Severity::kError, "serve", "failover.park_failed", -1, 2);
  const std::string path = ::testing::TempDir() + "/postmortem_test.json";
  ASSERT_TRUE(DumpPostMortem(path, "replan failed", &journal, nullptr).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(Contains(buffer.str(), "failover.park_failed"));
  EXPECT_TRUE(Contains(buffer.str(), "replan failed"));
  std::remove(path.c_str());

  const Status bad = DumpPostMortem("/no/such/dir/postmortem.json", "r", &journal, nullptr);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace obs
}  // namespace t10
