#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "src/obs/json_writer.h"
#include "src/util/logging.h"

namespace t10 {
namespace obs {

void Gauge::SetMax(double value) {
  double current = value_.load(std::memory_order_relaxed);
  while (value > current &&
         !value_.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

double Histogram::BucketUpperBound(int bucket) {
  T10_CHECK_GE(bucket, 0);
  T10_CHECK_LT(bucket, kNumBuckets);
  if (bucket == kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return std::pow(10.0, bucket - 9);  // 1e-9 .. 1e9.
}

void Histogram::Record(double value) {
  int bucket = kNumBuckets - 1;
  for (int i = 0; i < kNumBuckets - 1; ++i) {
    if (value <= BucketUpperBound(i)) {
      bucket = i;
      break;
    }
  }
  MutexLock lock(mu_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket];
  if (static_cast<int>(reservoir_.size()) < kReservoirCapacity) {
    reservoir_.push_back(value);
  } else {
    // Uniform reservoir sampling: replace a random slot with probability
    // capacity/count. Deterministic LCG (MMIX constants) keeps snapshots
    // reproducible for a fixed record order.
    rng_state_ = rng_state_ * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = (rng_state_ >> 16) % static_cast<std::uint64_t>(count_);
    if (r < static_cast<std::uint64_t>(kReservoirCapacity)) {
      reservoir_[static_cast<std::size_t>(r)] = value;
    }
  }
}

std::int64_t Histogram::count() const {
  MutexLock lock(mu_);
  return count_;
}

double Histogram::sum() const {
  MutexLock lock(mu_);
  return sum_;
}

double Histogram::min() const {
  MutexLock lock(mu_);
  return min_;
}

double Histogram::max() const {
  MutexLock lock(mu_);
  return max_;
}

double Histogram::mean() const {
  MutexLock lock(mu_);
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double Histogram::ApproxQuantile(double q) const {
  MutexLock lock(mu_);
  if (count_ == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target sample (1-based ceiling), then the bucket holding it.
  const std::int64_t rank =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(count_))));
  std::int64_t cumulative = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    const std::int64_t in_bucket = buckets_[b];
    if (in_bucket == 0) {
      continue;
    }
    if (cumulative + in_bucket >= rank) {
      // Interpolate geometrically between the bucket bounds (decade buckets
      // span a factor of 10, so log-linear is the natural scale). The first
      // and last buckets have no finite far bound; fall back to min_/max_.
      const double frac =
          static_cast<double>(rank - cumulative) / static_cast<double>(in_bucket);
      const double upper = b == kNumBuckets - 1 ? max_ : BucketUpperBound(b);
      const double lower = b == 0 ? min_ : BucketUpperBound(b - 1);
      double value;
      if (lower > 0.0 && upper > lower) {
        value = lower * std::pow(upper / lower, frac);
      } else {
        value = lower + (upper - lower) * frac;
      }
      return std::min(max_, std::max(min_, value));
    }
    cumulative += in_bucket;
  }
  return max_;
}

double Histogram::Quantile(double q) const {
  std::vector<double> samples;
  {
    MutexLock lock(mu_);
    if (reservoir_.empty()) {
      return 0.0;
    }
    samples = reservoir_;
  }
  std::sort(samples.begin(), samples.end());
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank on the sorted reservoir (1-based ceiling).
  const std::size_t rank = static_cast<std::size_t>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(q * static_cast<double>(samples.size())))));
  return samples[std::min(rank, samples.size()) - 1];
}

std::int64_t Histogram::cumulative_count(int bucket) const {
  T10_CHECK_GE(bucket, 0);
  T10_CHECK_LT(bucket, kNumBuckets);
  MutexLock lock(mu_);
  std::int64_t total = 0;
  for (int i = 0; i <= bucket; ++i) {
    total += buckets_[i];
  }
  return total;
}

void Histogram::Reset() {
  MutexLock lock(mu_);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  buckets_.fill(0);
  reservoir_.clear();
  rng_state_ = 0x9e3779b97f4a7c15ull;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never destroyed.
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  SharedMutexLock lock(mu_);
  auto [it, inserted] = kinds_.emplace(name, Kind::kCounter);
  T10_CHECK(it->second == Kind::kCounter) << name << " already registered as a different kind";
  if (inserted) {
    counters_.emplace(name, std::make_unique<Counter>());
  }
  return *counters_.at(name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  SharedMutexLock lock(mu_);
  auto [it, inserted] = kinds_.emplace(name, Kind::kGauge);
  T10_CHECK(it->second == Kind::kGauge) << name << " already registered as a different kind";
  if (inserted) {
    gauges_.emplace(name, std::make_unique<Gauge>());
  }
  return *gauges_.at(name);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  SharedMutexLock lock(mu_);
  auto [it, inserted] = kinds_.emplace(name, Kind::kHistogram);
  T10_CHECK(it->second == Kind::kHistogram) << name << " already registered as a different kind";
  if (inserted) {
    histograms_.emplace(name, std::make_unique<Histogram>());
  }
  return *histograms_.at(name);
}

std::string MetricsRegistry::ToJson() const {
  SharedReaderLock lock(mu_);
  JsonWriter w;
  w.BeginObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, counter] : counters_) {
    w.Key(name);
    w.Int(counter->value());
  }
  w.EndObject();

  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    w.Key(name);
    w.Double(gauge->value());
  }
  w.EndObject();

  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    w.Key(name);
    w.BeginObject();
    w.Key("count");
    w.Int(histogram->count());
    w.Key("sum");
    w.Double(histogram->sum());
    w.Key("min");
    w.Double(histogram->min());
    w.Key("max");
    w.Double(histogram->max());
    w.Key("mean");
    w.Double(histogram->mean());
    w.Key("p50");
    w.Double(histogram->Quantile(0.50));
    w.Key("p95");
    w.Double(histogram->Quantile(0.95));
    w.Key("p99");
    w.Double(histogram->Quantile(0.99));
    w.Key("buckets");
    w.BeginArray();
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      // Skip leading empty buckets to keep snapshots readable; cumulative
      // counts make the omission lossless.
      if (histogram->cumulative_count(b) == 0 && b + 1 < Histogram::kNumBuckets) {
        continue;
      }
      w.BeginObject();
      w.Key("le");
      w.Double(Histogram::BucketUpperBound(b));
      w.Key("count");
      w.Int(histogram->cumulative_count(b));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return w.str() + "\n";
}

void MetricsRegistry::WriteFile(const std::string& path) const {
  std::ofstream file(path);
  T10_CHECK(file.good()) << "cannot open metrics file " << path;
  file << ToJson();
}

void MetricsRegistry::Reset() {
  SharedReaderLock lock(mu_);
  for (auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

int MetricsRegistry::num_instruments() const {
  SharedReaderLock lock(mu_);
  return static_cast<int>(kinds_.size());
}

}  // namespace obs
}  // namespace t10
