// Repository benchmark: one run is one working session of the T10 tool
// chain, measured end to end and per layer.
//
//   1. Compile phase (the t10c side): every model of the evaluation zoo
//      (BERT, ViT, ResNet, NeRF at batch 1) compiled for the IPU Mk2, each
//      compile in a fresh Compiler, round after round in a seed-shuffled
//      order.
//   2. Serve phase (the t10-serve side): whole-model requests through a
//      pipeline-mode Router over a three-chip cluster — every request walks
//      every stage — driven by a closed loop of client slots.
//
// The phases alternate in slices of about a second each for the run's
// seconds, so host-speed drift during the run reaches both alike.
//
// The workloads change the one property each phase's mechanism depends on:
//
//   cold_serial    empty plan cache, serial search; one client (no queueing).
//   cold_parallel  empty plan cache, search fanned out over 4 workers; four
//                  clients (stages overlap, requests queue).
//   warm_serial    plan cache filled on disk during set-up, so the search is
//                  skipped; serving as in cold_serial (its control).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 the run attaches a span tracer to the compiler and the router,
// reports per-layer metrics instead (the difference between the two runs is
// the tracing overhead) and writes the spans as a Perfetto timeline under
// kWorkDir. Progress goes to stderr. Run from the repository root.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/core/functional.h"
#include "src/core/pass/pass.h"
#include "src/hardware/chip_spec.h"
#include "src/hardware/cluster_spec.h"
#include "src/ir/graph.h"
#include "src/ir/parser.h"
#include "src/models/zoo.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/serve/executor_pool.h"
#include "src/serve/router.h"
#include "src/sim/trace.h"
#include "src/verify/verifier.h"

namespace t10 {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  int compile_jobs;   // CompileOptions::jobs for the zoo compiles.
  bool warm_cache;    // Zoo compiles read a plan cache filled at set-up.
  int clients;        // Closed-loop client slots in the serve phase.
};

constexpr Workload kWorkloads[] = {
    {"cold_serial", 1, false, 1},
    {"cold_parallel", 4, false, 4},
    {"warm_serial", 1, true, 1},
};

// Scratch files (the warm plan cache, trace timelines), relative to the
// repository root.
constexpr char kWorkDir[] = ".bench_build/perfbench/work";

// Set-up runs this many times per run; setup_s reports the median.
constexpr int kSetupRounds = 3;
// At least this many zoo rounds, even past the run's deadline, so every model
// has a median.
constexpr int kMinCompileRounds = 2;
// Minimum length of one compile slice; the serve slice after it is as long.
constexpr double kSliceSeconds = 1.0;
// Serve slices are cut into parts this long, each followed by a speed sample.
constexpr double kServePartSeconds = 0.5;

// The served model: an f32 chain the byte-level executor runs end to end,
// deep enough that the three-chip partition gives every stage work and
// every handoff a boundary tensor.
const char* kServeModel = R"(
model perfbench-pipe
matmul name=fc1 m=16 k=32 n=32 a=x b=w1 c=h1 dtype=f32 weight=w1
unary  name=act1 shape=16x32 in=h1 out=a1 cost=2 dtype=f32
matmul name=fc2 m=16 k=32 n=32 a=a1 b=w2 c=h2 dtype=f32 weight=w2
unary  name=act2 shape=16x32 in=h2 out=a2 cost=2 dtype=f32
matmul name=fc3 m=16 k=32 n=32 a=a2 b=w3 c=h3 dtype=f32 weight=w3
matmul name=fc4 m=16 k=32 n=16 a=h3 b=w4 c=y dtype=f32 weight=w4
)";
constexpr int kServeChips = 3;
constexpr int kServeCoresPerChip = 16;

// The compiler's passes in pipeline order; traced runs time each one.
constexpr const char* kPasses[] = {pass_names::kFitCostModel, pass_names::kIntraOpSearch,
                                   pass_names::kInterOpReconcile, pass_names::kMemoryPlan,
                                   pass_names::kFinalize};

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration Seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Host-speed calibration. The benchmark runs on a few vCPUs of a shared host
// whose speed drifts with its neighbours' load, by 1.5x and more over
// minutes, and every wall time below drifts with it. So the run interleaves
// a fixed kernel that uses no T10 code with the measured work, and divides
// each timing by the speed factor around it: the kernel's median time over
// kCalibrationSamples runs, over kCalibrationNominalMs. Timings are therefore
// reported as on a host where the kernel takes kCalibrationNominalMs (about
// what one vCPU of an idle Xeon KVM guest gives); a change to T10 moves only
// the timings, never the factor.
constexpr int kCalibrationSamples = 7;
constexpr double kCalibrationNominalMs = 1.0;

// The kernel mixes what the measured work does: dense f32 arithmetic (the
// executor's matmuls), node-based map churn and a sort (the plan search's
// bookkeeping), with fresh allocations every call.
std::uint64_t CalibrationKernel(std::uint64_t seed) {
  constexpr int n = 40;
  std::uint64_t state = seed;
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  for (float& x : a) x = static_cast<float>(SplitMix64(state) % 1024) / 1024.0f;
  for (float& x : b) x = static_cast<float>(SplitMix64(state) % 1024) / 1024.0f;
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) c[i * n + j] += a[i * n + k] * b[k * n + j];
    }
  }
  std::map<std::uint64_t, double> table;
  for (int i = 0; i < 3000; ++i) {
    table[SplitMix64(state) % 8192] += c[static_cast<std::size_t>(i) % c.size()];
  }
  std::vector<double> values;
  for (const auto& [key, value] : table) values.push_back(value * static_cast<double>(key % 7));
  std::sort(values.begin(), values.end());
  std::uint64_t checksum = table.size();
  for (std::size_t i = 0; i < values.size(); i += 97) {
    checksum = checksum * 31 + static_cast<std::uint64_t>(values[i]);
  }
  // Scattered updates over a table larger than a core's private caches.
  static std::vector<std::uint64_t> scattered(std::size_t{1} << 19);
  for (int i = 0; i < 40000; ++i) {
    std::uint64_t& slot = scattered[SplitMix64(state) & (scattered.size() - 1)];
    slot += checksum;
    checksum ^= slot;
  }
  return checksum;
}

class HostSpeed {
 public:
  // Times the kernel kCalibrationSamples times; returns the current speed
  // factor (1 = nominal, 1.3 = the host runs 30% slower than nominal).
  double Sample() {
    std::vector<double> seconds;
    for (int i = 0; i < kCalibrationSamples; ++i) {
      const Clock::time_point start = Clock::now();
      checksum_ ^= CalibrationKernel(++calls_);
      seconds.push_back(SecondsBetween(start, Clock::now()));
    }
    last_ = Median(seconds) * 1e3 / kCalibrationNominalMs;
    factors_.push_back(last_);
    return last_;
  }

  // The factor of the latest Sample() (it must have been called).
  double last() const { return last_; }
  // The median factor of the run so far.
  double median() const { return Median(factors_); }
  std::uint64_t checksum() const { return checksum_; }

 private:
  std::vector<double> factors_;
  double last_ = 1.0;
  std::uint64_t calls_ = 0;
  std::uint64_t checksum_ = 0;
};

std::string Lower(std::string text) {
  for (char& c : text) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return text;
}

struct ZooModel {
  std::string name;  // Lower-case zoo name ("bert", ...).
  Graph graph;
  std::string reference_fingerprint;  // Warm workload: the filling compile's.
};

// Everything set-up builds. The router borrows serve_graph, so it is
// declared after it (and destroyed first).
struct Session {
  explicit Session(Graph serve) : serve_graph(std::move(serve)) {}

  std::vector<ZooModel> zoo;
  std::string cache_dir;  // Warm workload only.
  Graph serve_graph;
  std::unique_ptr<serve::Router> router;
};

StatusOr<std::unique_ptr<Session>> SetUp(const Workload& workload, obs::Tracer* tracer) {
  T10_ASSIGN_OR_RETURN(Graph serve_graph, TryParseModelText(kServeModel));
  auto session = std::make_unique<Session>(std::move(serve_graph));
  for (const ModelInfo& info : EvaluationModels()) {
    session->zoo.push_back({Lower(info.name), info.build(info.batch_sizes.front()), ""});
  }

  if (workload.warm_cache) {
    // Fill the on-disk plan cache the measured compiles read. The filling
    // compiles are cold, so their fingerprints are what every warm compile
    // must reproduce.
    session->cache_dir = (fs::path(kWorkDir) / "plan-cache").string();
    std::error_code ec;
    fs::remove_all(session->cache_dir, ec);
    fs::create_directories(session->cache_dir, ec);
    if (ec) {
      return InternalError("cannot create " + session->cache_dir + ": " + ec.message());
    }
    CompileOptions fill;
    fill.jobs = 4;
    fill.plan_cache_dir = session->cache_dir;
    for (ZooModel& model : session->zoo) {
      Compiler compiler(ChipSpec::IpuMk2(), fill);
      const CompiledModel compiled = compiler.Compile(model.graph);
      if (!compiled.fits) {
        return InternalError(model.name + " does not fit the chip");
      }
      model.reference_fingerprint = compiled.Fingerprint();
    }
  }

  serve::RouterOptions options;
  options.shard.num_workers = 2;
  options.shard.tracer = tracer;
  options.tracer = tracer;
  const ClusterSpec cluster =
      ClusterSpec::Homogeneous(ChipSpec::ScaledIpu(kServeCoresPerChip), kServeChips);
  session->router = std::make_unique<serve::Router>(cluster, session->serve_graph, options);
  T10_RETURN_IF_ERROR(session->router->Start());
  return session;
}

// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool end_to_end = false;  // Reported by untraced runs; per-layer otherwise.
};

// Operations attempted and failed over the whole run.
struct Outcomes {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // The first few, printed to stderr.

  void Fail(std::string error) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(error));
  }
};

// Finished-span seconds by span name.
using SpanTotals = std::map<std::string, double>;

SpanTotals SpanSeconds(const obs::Tracer& tracer) {
  SpanTotals seconds;
  for (const obs::SpanRecord& span : tracer.FinishedSpans()) {
    seconds[span.name] += span.duration_seconds;
  }
  return seconds;
}

double Total(const SpanTotals& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

double CounterValue(const char* name) {
  return static_cast<double>(obs::MetricsRegistry::Global().GetCounter(name).value());
}

// The compile phase: seed-shuffled rounds over the zoo, each compile in a
// fresh Compiler (as every t10c invocation is), checked as it goes.
class CompilePhase {
 public:
  CompilePhase(const Workload& workload, Session& session, std::uint64_t seed,
               obs::Tracer* tracer, HostSpeed& speed, Outcomes& outcomes)
      : session_(session),
        speed_(speed),
        outcomes_(outcomes),
        wall_(session.zoo.size()),
        first_fingerprint_(session.zoo.size()),
        rng_(seed) {
    options_.jobs = workload.compile_jobs;
    options_.plan_cache_dir = session.cache_dir;  // Empty (no disk cache) unless warm.
    options_.tracer = tracer;
    for (std::size_t i = 0; i < session.zoo.size(); ++i) order_.push_back(i);
  }

  int rounds() const { return rounds_; }

  // Compiles every zoo model once, in a freshly shuffled order, each timing
  // scaled by the mean speed factor sampled before and after it.
  void Round() {
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[SplitMix64(rng_) % i]);
    }
    for (const std::size_t index : order_) {
      const ZooModel& model = session_.zoo[index];
      ++outcomes_.attempted;
      const Clock::time_point start = Clock::now();
      CompiledModel compiled;
      {
        Compiler compiler(chip_, options_);
        compiled = compiler.Compile(model.graph);
      }
      const double seconds = SecondsBetween(start, Clock::now());
      const double before = speed_.last();
      wall_[index].push_back(seconds / (0.5 * (before + speed_.Sample())));
      Check(index, compiled);
    }
    ++rounds_;
  }

  // compile_ms (end to end), each model's median and, from `spans` (traced
  // runs only, scaled by the run's median speed factor), each pass's seconds,
  // plus search and cache counts per round.
  void AppendMetrics(const SpanTotals* spans, std::vector<Metric>& metrics) const {
    double log_sum = 0.0;
    for (const std::vector<double>& samples : wall_) {
      log_sum += std::log(Median(samples) * 1e3);
    }
    metrics.push_back(
        {"compile_ms", std::exp(log_sum / static_cast<double>(wall_.size())), "ms", true});
    for (std::size_t i = 0; i < wall_.size(); ++i) {
      metrics.push_back({"compile_" + session_.zoo[i].name + "_ms", Median(wall_[i]) * 1e3, "ms"});
    }
    if (spans != nullptr) {
      for (const char* pass : kPasses) {
        metrics.push_back({std::string(pass) + "_ms",
                           Total(*spans, pass) * 1e3 / rounds_ / speed_.median(), "ms"});
      }
    }
    metrics.push_back(
        {"plans_evaluated", CounterValue("compiler.search.evaluations") / rounds_, "count"});
    metrics.push_back({"plan_cache_hits", CounterValue("compiler.cache.hits") / rounds_, "count"});
  }

 private:
  // Outside the timed span: the model fits, compiles are deterministic round
  // to round, the first passes the static verifier, and a warm compile
  // reproduces the cold compile that filled the cache.
  void Check(std::size_t index, const CompiledModel& compiled) {
    const ZooModel& model = session_.zoo[index];
    if (!compiled.fits) {
      outcomes_.Fail(model.name + ": does not fit");
      return;
    }
    const std::string fingerprint = compiled.Fingerprint();
    if (first_fingerprint_[index].empty()) {
      first_fingerprint_[index] = fingerprint;
      const verify::VerifyResult check = verify::Verifier(chip_).VerifyAll(compiled, model.graph);
      if (!check.ok()) {
        outcomes_.Fail(model.name + ": verifier: " + check.Listing());
      }
    } else if (fingerprint != first_fingerprint_[index]) {
      outcomes_.Fail(model.name + ": compile is not deterministic");
    }
    if (!model.reference_fingerprint.empty() && fingerprint != model.reference_fingerprint) {
      outcomes_.Fail(model.name + ": warm compile differs from the cold compile");
    }
  }

  Session& session_;
  HostSpeed& speed_;
  Outcomes& outcomes_;
  const ChipSpec chip_ = ChipSpec::IpuMk2();
  CompileOptions options_;
  std::vector<std::vector<double>> wall_;  // Scaled seconds, per zoo model.
  std::vector<std::string> first_fingerprint_;
  std::vector<std::size_t> order_;
  std::uint64_t rng_;
  int rounds_ = 0;
};

// The serve phase: a closed loop of `clients` slots, each submitting its next
// whole-model request as soon as its previous one is answered.
class ServePhase {
 public:
  ServePhase(const Workload& workload, Session& session, std::uint64_t seed, HostSpeed& speed,
             Outcomes& outcomes)
      : clients_(workload.clients),
        session_(session),
        speed_(speed),
        outcomes_(outcomes),
        rng_(seed ^ 0x5e7fe11full) {}

  // Serves for `seconds`, in parts of kServePartSeconds.
  void Slice(double seconds) {
    const Clock::time_point end = Clock::now() + Seconds(seconds);
    do {
      Part(std::min(end, Clock::now() + Seconds(kServePartSeconds)));
    } while (Clock::now() < end);
  }

  // Checks every OK output against the host reference, then appends
  // request_p50_ms and requests_per_s (end to end) and the per-request layer
  // costs, from `spans` for traced runs, scaled by the run's median speed
  // factor.
  void Finish(const SpanTotals* spans, std::vector<Metric>& metrics) {
    const Operator& last = session_.serve_graph.op(session_.serve_graph.num_ops() - 1);
    for (const auto& [input_seed, got] : outputs_) {
      const HostTensor want = ReferenceExecute(last, serve::SlotInputs(last, input_seed));
      bool close = got.shape == want.shape && got.data.size() == want.data.size();
      for (std::size_t i = 0; close && i < got.data.size(); ++i) {
        close = std::fabs(got.data[i] - want.data[i]) <= 1e-4f * (1.0f + std::fabs(want.data[i]));
      }
      if (!close) {
        outcomes_.Fail("output differs from the host reference (seed " +
                       std::to_string(input_seed) + ")");
      }
    }

    const double completed = static_cast<double>(latencies_.size());
    metrics.push_back({"request_p50_ms", Median(latencies_) * 1e3, "ms", true});
    metrics.push_back({"requests_per_s",
                       serving_seconds_ > 0.0
                           ? static_cast<double>(outputs_.size()) / serving_seconds_
                           : 0.0,
                       "1/s", true});
    metrics.push_back({"request_p90_ms", Percentile(latencies_, 0.90) * 1e3, "ms"});
    const double factor = speed_.median();
    metrics.push_back({"admit_ms", Mean(admit_seconds_) * 1e3 / factor, "ms"});
    if (spans != nullptr && completed > 0) {
      for (const auto& [span, metric] : {std::pair{"queue.wait", "queue_wait_ms"},
                                         std::pair{"execute", "execute_ms"},
                                         std::pair{"audit", "audit_ms"}}) {
        metrics.push_back({metric, Total(*spans, span) * 1e3 / completed / factor, "ms"});
      }
    }
    metrics.push_back({"bytes_per_request",
                       completed > 0 ? CounterValue("sim.machine.bytes_sent") / completed : 0.0,
                       "bytes"});
    std::fprintf(stderr, "perfbench: %lld request(s) over %.2f scaled s with %d client(s)\n",
                 static_cast<long long>(latencies_.size()), serving_seconds_, clients_);
  }

 private:
  struct InFlight {
    Clock::time_point submitted;
    std::uint64_t input_seed;
  };

  // Serves until `deadline`, then stops submitting and waits for the requests
  // still in flight. Latencies and serving time are scaled by the mean speed
  // factor sampled before and after the part.
  void Part(Clock::time_point deadline) {
    serve::Router& router = *session_.router;
    const Clock::time_point start = Clock::now();
    Clock::time_point last_completion = start;
    while (true) {
      while (static_cast<int>(in_flight_.size()) < clients_ && Clock::now() < deadline) {
        serve::Request request;
        request.op_slot = 0;
        request.input_seed = SplitMix64(rng_);
        const Clock::time_point submitted = Clock::now();
        StatusOr<std::int64_t> id = router.Submit(request);
        admit_seconds_.push_back(SecondsBetween(submitted, Clock::now()));
        ++outcomes_.attempted;
        if (!id.ok()) {
          outcomes_.Fail("submit: " + id.status().ToString());
          continue;
        }
        in_flight_.emplace(*id, InFlight{submitted, request.input_seed});
      }
      if (in_flight_.empty()) break;
      std::vector<serve::Response> responses = router.TakeResponses();
      if (responses.empty()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      const Clock::time_point now = Clock::now();
      for (serve::Response& response : responses) {
        Resolve(now, response);
      }
      last_completion = now;
    }
    const double before = speed_.last();
    const double factor = 0.5 * (before + speed_.Sample());
    for (const double seconds : part_latencies_) latencies_.push_back(seconds / factor);
    part_latencies_.clear();
    serving_seconds_ += SecondsBetween(start, last_completion) / factor;
  }

  void Resolve(Clock::time_point now, serve::Response& response) {
    const auto it = in_flight_.find(response.id);
    if (it == in_flight_.end()) {
      outcomes_.Fail("response for unknown or already answered request " +
                     std::to_string(response.id));
      return;
    }
    part_latencies_.push_back(SecondsBetween(it->second.submitted, now));
    if (!response.status.ok()) {
      outcomes_.Fail("request: " + response.status.ToString());
    } else if (!response.bit_identical) {
      outcomes_.Fail("response not bit-identical to the fault-free run");
    } else {
      outputs_.emplace_back(it->second.input_seed, std::move(response.output));
    }
    in_flight_.erase(it);
  }

  const int clients_;
  Session& session_;
  HostSpeed& speed_;
  Outcomes& outcomes_;
  std::uint64_t rng_;
  std::map<std::int64_t, InFlight> in_flight_;
  std::vector<double> part_latencies_;  // Seconds, submit -> response seen.
  std::vector<double> latencies_;       // The same, scaled, over all parts.
  std::vector<double> admit_seconds_;  // Router::Submit call durations.
  std::vector<std::pair<std::uint64_t, HostTensor>> outputs_;  // Checked in Finish.
  double serving_seconds_ = 0.0;
};

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else {
      Usage();
      return 2;
    }
  }
  if (workload == nullptr || !seed.has_value() || seconds <= 0.0 || trace < 0) {
    Usage();
    return 2;
  }

  std::unique_ptr<obs::Tracer> tracer;
  if (trace == 1) tracer = std::make_unique<obs::Tracer>();

  // Set-up, several times, each timing scaled like every other; the last
  // session is the one measured.
  HostSpeed speed;
  speed.Sample();
  std::vector<double> setup_seconds;
  std::unique_ptr<Session> session;
  for (int round = 0; round < kSetupRounds; ++round) {
    session.reset();
    const double before = speed.last();
    const Clock::time_point start = Clock::now();
    StatusOr<std::unique_ptr<Session>> built = SetUp(*workload, tracer.get());
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    session = *std::move(built);
    const double seconds = SecondsBetween(start, Clock::now());
    setup_seconds.push_back(seconds / (0.5 * (before + speed.Sample())));
  }
  std::fprintf(stderr, "perfbench: %s set-up %.3fs (median of %d), %d pipeline stage(s)\n",
               workload->name, Median(setup_seconds), kSetupRounds,
               session->router->num_shards());

  // Compile and serve slices alternate — whole zoo rounds for at least
  // kSliceSeconds, then as long of serving — so both phases sample the host
  // across the whole run rather than one half of it each.
  obs::MetricsRegistry::Global().Reset();
  const SpanTotals spans_before = tracer != nullptr ? SpanSeconds(*tracer) : SpanTotals{};
  Outcomes outcomes;
  CompilePhase compile(*workload, *session, *seed, tracer.get(), speed, outcomes);
  ServePhase serve(*workload, *session, *seed, speed, outcomes);
  const Clock::time_point deadline = Clock::now() + Seconds(seconds);
  while (Clock::now() < deadline || compile.rounds() < kMinCompileRounds) {
    const Clock::time_point slice_start = Clock::now();
    do {
      compile.Round();
    } while (SecondsBetween(slice_start, Clock::now()) < kSliceSeconds);
    serve.Slice(SecondsBetween(slice_start, Clock::now()));
  }
  std::fprintf(stderr, "perfbench: %d zoo round(s); speed factor median %.3f (checksum %llx)\n",
               compile.rounds(), speed.median(), static_cast<unsigned long long>(speed.checksum()));

  // Per-layer span seconds of the measured slices only (set-up compiled the
  // pipeline stages under the same tracer).
  std::optional<SpanTotals> spans;
  if (tracer != nullptr) {
    spans = SpanSeconds(*tracer);
    for (const auto& [name, before] : spans_before) (*spans)[name] -= before;
  }
  std::vector<Metric> all;
  compile.AppendMetrics(spans ? &*spans : nullptr, all);
  serve.Finish(spans ? &*spans : nullptr, all);
  all.push_back({"calibration_ms", speed.median() * kCalibrationNominalMs, "ms"});
  if (const Status stopped = session->router->Shutdown(); !stopped.ok()) {
    outcomes.Fail("router shutdown: " + stopped.ToString());
  }
  if (workload->warm_cache) {
    std::error_code ec;
    fs::remove_all(session->cache_dir, ec);
  }
  if (tracer != nullptr) {
    TraceWriter writer;
    AppendTracer(*tracer, writer);
    const std::string path =
        (fs::path(kWorkDir) / ("trace-" + std::string(workload->name) + ".json")).string();
    std::error_code ec;
    fs::create_directories(kWorkDir, ec);
    if (const Status written = writer.WriteFile(path); !written.ok()) {
      std::fprintf(stderr, "perfbench: trace: %s\n", written.ToString().c_str());
    }
  }

  std::vector<Metric> metrics;
  for (const Metric& metric : all) {
    if (metric.end_to_end == (trace == 0)) metrics.push_back(metric);
  }
  if (trace == 0) metrics.push_back({"setup_s", Median(setup_seconds), "s", true});
  for (const std::string& error : outcomes.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", error.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              outcomes.failed == 0 ? "true" : "false",
              static_cast<long long>(outcomes.attempted),
              static_cast<long long>(outcomes.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace t10

int main(int argc, char** argv) { return t10::Main(argc, argv); }
