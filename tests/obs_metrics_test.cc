#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/json_writer.h"
#include "src/obs/span.h"

namespace t10 {
namespace obs {
namespace {

TEST(CounterTest, IncrementAndAdd) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.counter");
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsDoNotDropUpdates) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndSetMax) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(1.0);  // Lower: ignored.
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.SetMax(7.0);  // Higher: taken.
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.Set(-1.0);  // Plain Set always overwrites.
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(HistogramTest, TracksCountSumMinMaxMean) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.hist");
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  h.Record(2.0);
  h.Record(6.0);
  h.Record(1.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 9.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

TEST(HistogramTest, BucketsAreCumulative) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.buckets");
  h.Record(5e-7);  // le 1e-6.
  h.Record(0.5);   // le 1.
  h.Record(3.0);   // le 10.
  // Find the bucket with upper bound 1e-6 and 1.
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const double le = Histogram::BucketUpperBound(b);
    if (le == 1e-6) {
      EXPECT_EQ(h.cumulative_count(b), 1);
    }
    if (le == 1.0) {
      EXPECT_EQ(h.cumulative_count(b), 2);
    }
  }
  EXPECT_EQ(h.cumulative_count(Histogram::kNumBuckets - 1), 3);
}

// A histogram-bound span is the one interval timer; with no tracer it still
// records its duration.
TEST(ScopedTimerTest, RecordsElapsedSeconds) {
  MetricsRegistry registry;
  {
    Span timer = StartSpan(TraceContext(), "timer", &registry.GetHistogram("test.timer.seconds"));
    EXPECT_FALSE(timer.active());
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) {
      sink = sink + 1.0;
    }
  }
  Histogram& h = registry.GetHistogram("test.timer.seconds");
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(h.sum(), 0.0);
  EXPECT_LT(h.sum(), 10.0);  // Sanity: the loop is far below ten seconds.
}

TEST(RegistryTest, HandlesAreStableAndFindOrCreate) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("same.name");
  Counter& b = registry.GetCounter("same.name");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.num_instruments(), 1);
  registry.GetGauge("other.name");
  EXPECT_EQ(registry.num_instruments(), 2);
}

TEST(RegistryTest, ResetZeroesEverythingButKeepsHandles) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("r.counter");
  Gauge& g = registry.GetGauge("r.gauge");
  Histogram& h = registry.GetHistogram("r.hist");
  c.Add(5);
  g.Set(3.0);
  h.Record(1.0);
  registry.Reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0);
}

// Structural JSON check without a parser: every brace/bracket balances and
// quotes pair up outside of escapes.
void ExpectBalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        ++depth;
        break;
      case '}':
      case ']':
        --depth;
        EXPECT_GE(depth, 0);
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST(RegistryTest, JsonSnapshotContainsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("compiler.cache.hits").Add(3);
  registry.GetGauge("sim.machine.scratchpad_peak_bytes").Set(1024.0);
  registry.GetHistogram("compiler.phase.total.seconds").Record(0.25);
  const std::string json = registry.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"compiler.cache.hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"sim.machine.scratchpad_peak_bytes\": 1024"), std::string::npos);
  EXPECT_NE(json.find("\"compiler.phase.total.seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(RegistryTest, JsonSnapshotRoundTripsThroughFile) {
  MetricsRegistry registry;
  registry.GetCounter("a.counter").Add(7);
  registry.GetGauge("b.gauge").Set(1.5);
  const std::string path = ::testing::TempDir() + "/t10_metrics_test.json";
  registry.WriteFile(path);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream contents;
  contents << file.rdbuf();
  EXPECT_EQ(contents.str(), registry.ToJson());
}

TEST(RegistryTest, EmptyRegistrySnapshotIsValid) {
  MetricsRegistry registry;
  const std::string json = registry.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(JsonWriterTest, EscapesAndNesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("quote\"key");
  w.String("line\nbreak");
  w.Key("list");
  w.BeginArray();
  w.Int(1);
  w.Double(2.5);
  w.Bool(true);
  w.EndArray();
  w.EndObject();
  const std::string json = w.str();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("quote\\\"key"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
  EXPECT_NE(json.find("2.5"), std::string::npos);
  EXPECT_NE(json.find("true"), std::string::npos);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(1.0), "1");
}

TEST(HistogramTest, QuantileIsExactWhileUnderReservoirCapacity) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.quantile");
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 100.0);
  EXPECT_NEAR(h.Quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.Quantile(0.99), 99.0, 1.0);
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  MetricsRegistry registry;
  EXPECT_DOUBLE_EQ(registry.GetHistogram("test.empty").Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantileEstimatesAndStaysDeterministicBeyondCapacity) {
  // Past the reservoir bound the quantile becomes a sampled estimate; for a
  // uniform stream it must stay near the true value, and identical record
  // orders must produce identical snapshots (deterministic LCG).
  MetricsRegistry registry;
  Histogram& a = registry.GetHistogram("test.reservoir.a");
  Histogram& b = registry.GetHistogram("test.reservoir.b");
  const int n = Histogram::kReservoirCapacity * 4;
  for (int i = 0; i < n; ++i) {
    a.Record(static_cast<double>(i));
    b.Record(static_cast<double>(i));
  }
  const double p50 = a.Quantile(0.50);
  EXPECT_GT(p50, static_cast<double>(n) * 0.35);
  EXPECT_LT(p50, static_cast<double>(n) * 0.65);
  const double p99 = a.Quantile(0.99);
  EXPECT_GT(p99, static_cast<double>(n) * 0.90);
  EXPECT_DOUBLE_EQ(a.Quantile(0.50), b.Quantile(0.50));
  EXPECT_DOUBLE_EQ(a.Quantile(0.99), b.Quantile(0.99));
}

TEST(HistogramTest, ResetClearsTheReservoir) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.reset");
  for (int i = 0; i < 10; ++i) {
    h.Record(5.0);
  }
  h.Reset();
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  h.Record(2.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);
}

TEST(RegistryTest, JsonSnapshotIncludesPercentiles) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.latency.seconds");
  for (int i = 1; i <= 100; ++i) {
    h.Record(static_cast<double>(i) * 0.001);
  }
  const std::string json = registry.ToJson();
  ExpectBalancedJson(json);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(GlobalRegistryTest, IsASingleton) {
  MetricsRegistry& a = MetricsRegistry::Global();
  MetricsRegistry& b = MetricsRegistry::Global();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace obs
}  // namespace t10
