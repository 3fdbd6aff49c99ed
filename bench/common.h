// Shared helpers for the figure-reproduction benches. Every bench prints a
// header naming the figure it regenerates, emits its rows through
// t10::Table, and ends with a short "paper vs measured" note that
// EXPERIMENTS.md collects.

#ifndef T10_BENCH_COMMON_H_
#define T10_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/campaign.h"
#include "src/obs/metrics.h"
#include "src/util/logging.h"
#include "src/util/table.h"

namespace t10 {
namespace bench {

// Writes a snapshot of the global metrics registry (compiler phase timings,
// search/cache statistics, simulator traffic) to `path`.
inline void DumpMetrics(const std::string& path) {
  obs::MetricsRegistry::Global().WriteFile(path);
  std::printf("metrics snapshot written to %s\n", path.c_str());
}

namespace internal {
inline std::string& MetricsPath() {
  static std::string path;
  return path;
}
}  // namespace internal

inline void Header(const std::string& figure, const std::string& description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure.c_str(), description.c_str());
  std::printf("==============================================================\n");
  // T10_METRICS=<path>: every bench binary dumps a metrics snapshot next to
  // its results on exit, so figure runs are measurable without code changes.
  static bool registered = false;
  if (!registered) {
    registered = true;
    // NOLINTNEXTLINE(concurrency-mt-unsafe): benchmarks read the environment single-threaded at startup.
    if (const char* path = std::getenv("T10_METRICS"); path != nullptr && path[0] != '\0') {
      internal::MetricsPath() = path;
      std::atexit([] { DumpMetrics(internal::MetricsPath()); });
    }
  }
}

inline void Note(const std::string& text) { std::printf("NOTE: %s\n\n", text.c_str()); }

// Set T10_BENCH_QUICK=1 to run reduced sweeps (CI smoke mode).
inline bool QuickMode() {
  const char* env = std::getenv("T10_BENCH_QUICK");  // NOLINT(concurrency-mt-unsafe): read once at startup.
  return env != nullptr && env[0] == '1';
}

inline std::string Ms(double seconds) { return FormatDouble(seconds * 1e3, 3) + "ms"; }

inline std::string Gbps(double bytes_per_second) {
  return FormatDouble(bytes_per_second / 1e9, 2) + "GB/s";
}

inline std::string Pct(double fraction) { return FormatDouble(fraction * 100.0, 1) + "%"; }

// One JSON object for the checked-in BENCH_*.json baselines, built field by
// field in output order. Nested objects render on one line; an array of
// objects renders one element per line, as a field of the top-level object.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, std::int64_t value) {
    return AddRaw(key, std::to_string(value));
  }
  JsonObject& Add(const std::string& key, double value, int decimals) {
    return AddRaw(key, FormatDouble(value, decimals));
  }
  JsonObject& Add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
      }
      quoted += c;
    }
    return AddRaw(key, quoted + "\"");
  }
  JsonObject& Add(const std::string& key, const JsonObject& value) {
    return AddRaw(key, value.Inline());
  }
  JsonObject& Add(const std::string& key, const std::vector<JsonObject>& rows) {
    std::string text = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      text += (i == 0 ? "\n    " : ",\n    ") + rows[i].Inline();
    }
    return AddRaw(key, text + (rows.empty() ? "]" : "\n  ]"));
  }

  // {"key": value, ...} on one line.
  std::string Inline() const {
    std::string text = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      text += (i == 0 ? "" : ", ") + fields_[i];
    }
    return text + "}";
  }

  // The top-level form: one field per line.
  std::string Document() const {
    std::string text = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      text += "  " + fields_[i] + (i + 1 < fields_.size() ? ",\n" : "\n");
    }
    return text + "}\n";
  }

 private:
  JsonObject& AddRaw(const std::string& key, const std::string& value) {
    fields_.push_back("\"" + key + "\": " + value);
    return *this;
  }

  std::vector<std::string> fields_;  // Rendered "key": value pairs.
};

// T10_BENCH_JSON=<path>: a bench that keeps a BENCH_*.json baseline writes
// `doc` there; unset, nothing is written. Reduced sweeps are not baselines,
// so quick mode (T10_BENCH_QUICK=1) never writes.
inline void WriteJsonBaseline(const JsonObject& doc) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): benchmarks read the environment single-threaded.
  const char* path = std::getenv("T10_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') {
    return;
  }
  if (QuickMode()) {
    std::printf("quick mode: baseline %s not written\n", path);
    return;
  }
  std::ofstream out(path);
  out << doc.Document();
  T10_CHECK(out.good()) << "cannot write " << path;
  std::printf("baseline written to %s\n", path);
}

// Fault-overhead measurement: the same fault campaign run fault-free and
// under transient corruption, so a bench can report what the reliability
// layer (checksummed transfers, retry backoff, checkpoints) costs. Both runs
// flow through the instrumented machine, so with T10_METRICS set the
// sim.fault.* / exec.fault.* counters land in the snapshot written at exit.
struct FaultOverhead {
  fault::CampaignResult clean;    // corrupt rate 0: reliability layer only.
  fault::CampaignResult faulted;  // injected corruption: retries + backoff.
  double corrupt_rate = 0.0;

  std::int64_t extra_retries() const { return faulted.retries - clean.retries; }
  double penalty_seconds() const {
    return faulted.fault_penalty_seconds - clean.fault_penalty_seconds;
  }
};

inline FaultOverhead MeasureFaultOverhead(const ChipSpec& chip, const Graph& graph,
                                          double corrupt_rate = 0.01,
                                          std::uint64_t seed = 0x7105eed) {
  FaultOverhead overhead;
  overhead.corrupt_rate = corrupt_rate;
  fault::FaultSpec clean_spec;
  clean_spec.seed = seed;
  fault::FaultSpec faulty_spec = clean_spec;
  faulty_spec.corrupt_rate = corrupt_rate;
  StatusOr<fault::CampaignResult> clean = fault::RunFaultCampaign(chip, graph, clean_spec);
  StatusOr<fault::CampaignResult> faulted = fault::RunFaultCampaign(chip, graph, faulty_spec);
  T10_CHECK(clean.ok()) << clean.status().ToString();
  T10_CHECK(faulted.ok()) << faulted.status().ToString();
  overhead.clean = *std::move(clean);
  overhead.faulted = *std::move(faulted);
  return overhead;
}

}  // namespace bench
}  // namespace t10

#endif  // T10_BENCH_COMMON_H_
