// Process-wide observability: a thread-safe metrics registry with counters,
// gauges and histograms, plus JSON snapshot export.
//
// T10's determinism thesis (paper §4.3) only pays off if compiles and
// simulated runs are measurable: the compiler reports per-phase wall time
// and cache behaviour, the intra-op search reports how many plans it
// enumerated/filtered/costed, the functional machine reports inter-core
// traffic and scratchpad high-water marks, and the inter-op reconciler
// reports each ΔT/ΔM trade it makes. All of it lands here under a dotted
// naming scheme:
//
//   compiler.phase.<phase>.seconds     histogram   one record per compile
//   compiler.cache.{hits,misses}       counter     signature cache behaviour
//   compiler.search.*                  counter     enumeration statistics
//   compiler.reconcile.*               gauge/ctr   Algorithm-1 trajectory
//   sim.machine.*                      counter/gauge  byte-level simulator
//
// Handles returned by the registry are stable for the registry's lifetime,
// so hot paths resolve them once and bump atomics thereafter. Snapshots
// (`ToJson`/`WriteFile`) serialize every instrument sorted by name; t10c
// exposes them via `--metrics out.json` and every bench dumps one when
// T10_METRICS is set.
//
// Intervals are timed by one mechanism only: an obs::Span bound to a
// histogram (span.h) records its duration when it ends, with or without a
// tracer. Name the histogram with a ".seconds" suffix by convention:
//
//   {
//     obs::Span span = obs::StartSpan(ctx, "phase.pareto",
//                                     &registry.GetHistogram("compiler.phase.pareto.seconds"));
//     FrontierPlans(...);
//   }

#ifndef T10_SRC_OBS_METRICS_H_
#define T10_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/sync.h"

namespace t10 {
namespace obs {

// Monotonically increasing integer metric.
class Counter {
 public:
  void Increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void Add(std::int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Last-written-value metric (also supports monotone max updates, used for
// high-water marks).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  // Raises the gauge to `value` if larger (scratchpad peaks etc.).
  void SetMax(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Distribution metric: count/sum/min/max plus decade (power-of-ten) buckets
// covering 1e-9 .. 1e9, which spans everything we record (nanosecond timers
// to multi-gigabyte traffic totals).
class Histogram {
 public:
  static constexpr int kNumBuckets = 20;  // le 1e-9, 1e-8, ..., le 1e9, +inf.

  void Record(double value);

  std::int64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty.
  double max() const;  // 0 when empty.
  double mean() const;
  // Cumulative count of samples <= the bucket's upper bound.
  std::int64_t cumulative_count(int bucket) const;
  // Upper bound of bucket `i` (last bucket is +inf).
  static double BucketUpperBound(int bucket);

  // Approximate quantile (q in [0,1]) by log-linear interpolation inside the
  // decade bucket holding the target rank, clamped to the observed min/max.
  // Decade buckets make this coarse (right order of magnitude, not exact
  // percentile); Quantile() below is the accurate variant. 0 when empty.
  double ApproxQuantile(double q) const;

  // Sample-based quantile (q in [0,1]) from a bounded reservoir of recorded
  // values: exact while count <= kReservoirCapacity, an unbiased estimate
  // afterwards (uniform reservoir sampling with a deterministic LCG, so
  // snapshots are reproducible for a fixed record order). This is what
  // p50/p95/p99 in ToJson snapshots and the serve summary table report.
  // 0 when empty.
  double Quantile(double q) const;

  void Reset();

  static constexpr int kReservoirCapacity = 4096;

 private:
  mutable Mutex mu_{"obs.metrics.histogram.mu"};
  std::int64_t count_ T10_GUARDED_BY(mu_) = 0;
  double sum_ T10_GUARDED_BY(mu_) = 0.0;
  double min_ T10_GUARDED_BY(mu_) = 0.0;
  double max_ T10_GUARDED_BY(mu_) = 0.0;
  std::array<std::int64_t, kNumBuckets> buckets_ T10_GUARDED_BY(mu_) = {};  // Non-cumulative.
  std::uint64_t rng_state_ T10_GUARDED_BY(mu_) = 0x9e3779b97f4a7c15ull;  // LCG for reservoir.
  std::vector<double> reservoir_ T10_GUARDED_BY(mu_);
};

class MetricsRegistry {
 public:
  // The process-wide registry used by the instrumented compiler/simulator.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. References stay valid for the registry's lifetime.
  // Registering the same name as two different instrument kinds CHECK-fails.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Snapshot of every instrument as a JSON document:
  //   {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  //    min, max, mean, buckets: [{le, count}, ...]}}}
  // Names sort lexicographically, so output is deterministic.
  std::string ToJson() const;

  // Writes ToJson() to `path`; CHECK-fails if the file cannot be opened.
  void WriteFile(const std::string& path) const;

  // Zeroes every instrument (tests; bench warm-up separation). Handles stay
  // valid.
  void Reset();

  int num_instruments() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  // Reader/writer: registration (find-or-create) takes the write side, the
  // read-mostly paths — snapshots, Reset (which mutates instruments, not the
  // maps), instrument counting — share the read side, so a serving snapshot
  // never serializes against another snapshot.
  mutable SharedMutex mu_{"obs.metrics.registry.mu"};
  std::map<std::string, Kind> kinds_ T10_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Counter>> counters_ T10_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ T10_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ T10_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace t10

#endif  // T10_SRC_OBS_METRICS_H_
