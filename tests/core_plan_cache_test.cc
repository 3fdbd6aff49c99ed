// Persistent plan cache: signature keying, fingerprint versioning, warm-hit
// byte-identity, corruption rejection and stale-file eviction.

#include "src/core/pass/plan_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/core/compiler.h"
#include "src/hardware/timing_source.h"
#include "src/ir/builder.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

namespace fs = std::filesystem;

ChipSpec SmallChip(int cores = 64) {
  ChipSpec chip = ChipSpec::IpuMk2();
  chip.num_cores = cores;
  chip.cores_per_chip = cores;
  return chip;
}

Graph Mlp(std::int64_t batch = 32) {
  Graph g("mlp");
  g.Add(MatMulOp("fc1", batch, 256, 512, DataType::kF16, "x", "w1", "h1"));
  g.Add(ElementwiseOp("gelu", {batch, 512}, DataType::kF16, "h1", "h2", 8.0));
  g.Add(MatMulOp("fc2", batch, 512, 256, DataType::kF16, "h2", "w2", "y"));
  g.MarkWeight("w1");
  g.MarkWeight("w2");
  return g;
}

// Four identical blocks (matmul + activation) and a distinct head: nine
// operators, three signatures.
Graph RepeatedBlocks() {
  Graph g("blocks");
  std::string in = "x";
  for (int i = 0; i < 4; ++i) {
    const std::string w = NumberedName("w", i);
    g.Add(MatMulOp(NumberedName("fc", i), 16, 128, 128, DataType::kF16, in, w,
                   NumberedName("h", i)));
    g.MarkWeight(w);
    in = NumberedName("a", i);
    g.Add(ElementwiseOp(NumberedName("act", i), {16, 128}, DataType::kF16, NumberedName("h", i),
                        in, 4.0));
  }
  g.Add(MatMulOp("head", 16, 128, 64, DataType::kF16, in, "wh", "y"));
  g.MarkWeight("wh");
  return g;
}

// A fresh empty directory under the system temp dir, unique per test.
fs::path FreshCacheDir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("t10_plan_cache_test_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::vector<fs::path> CacheFilesIn(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".t10cache") files.push_back(entry.path());
  }
  return files;
}

std::int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

TEST(OperatorSignatureTest, NameDoesNotParticipate) {
  Graph g("sig");
  g.Add(MatMulOp("alpha", 16, 128, 128, DataType::kF16, "x", "w1", "h1"));
  g.Add(MatMulOp("beta", 16, 128, 128, DataType::kF16, "h1", "w2", "h2"));
  EXPECT_EQ(OperatorSignature(g.op(0)), OperatorSignature(g.op(1)));
}

TEST(OperatorSignatureTest, ShapeDtypeAndKindAllParticipate) {
  Graph g("sig");
  g.Add(MatMulOp("a", 16, 128, 128, DataType::kF16, "x", "w1", "h1"));
  g.Add(MatMulOp("b", 16, 128, 256, DataType::kF16, "h1", "w2", "h2"));  // Shape.
  g.Add(MatMulOp("c", 16, 128, 128, DataType::kF32, "x2", "w3", "h3"));  // Dtype.
  g.Add(ElementwiseOp("d", {16, 128}, DataType::kF16, "e_in", "e_out", 8.0));  // Kind.
  const std::string base = OperatorSignature(g.op(0));
  EXPECT_NE(base, OperatorSignature(g.op(1)));
  EXPECT_NE(base, OperatorSignature(g.op(2)));
  EXPECT_NE(base, OperatorSignature(g.op(3)));
}

TEST(PlanCacheTest, WarmCompileSkipsSearchAndIsByteIdentical) {
  const fs::path dir = FreshCacheDir("warm");
  CompileOptions options;
  options.plan_cache_dir = dir.string();
  const Graph graph = Mlp();

  obs::MetricsRegistry::Global().Reset();
  std::string cold_fp;
  {
    Compiler cold(SmallChip(), options);
    CompiledModel model = cold.Compile(graph);
    ASSERT_TRUE(model.fits);
    cold_fp = model.Fingerprint();
  }  // Destructor flushes to disk.
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 3);
  ASSERT_EQ(CacheFilesIn(dir).size(), 1u);

  obs::MetricsRegistry::Global().Reset();
  Compiler warm(SmallChip(), options);
  CompiledModel model = warm.Compile(graph);
  ASSERT_TRUE(model.fits);
  // Every signature loads from disk: zero misses, zero fresh searches, and
  // the rebuilt model is byte-identical to the cold one.
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 0);
  EXPECT_EQ(CounterValue("compiler.search.searches"), 0);
  EXPECT_EQ(CounterValue("compiler.cache.hits"), 3);
  EXPECT_EQ(model.Fingerprint(), cold_fp);
  obs::MetricsRegistry::Global().Reset();
}

TEST(PlanCacheTest, WarmCompileRebuildsEachSignatureOnce) {
  const fs::path dir = FreshCacheDir("rebuilds");
  CompileOptions options;
  options.plan_cache_dir = dir.string();
  const Graph graph = RepeatedBlocks();

  obs::MetricsRegistry::Global().Reset();
  std::string cold_fp;
  {
    Compiler cold(SmallChip(), options);
    CompiledModel model = cold.Compile(graph);
    ASSERT_TRUE(model.fits);
    cold_fp = model.Fingerprint();
  }
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 3);
  EXPECT_EQ(CounterValue("compiler.cache.hits"), 6);
  EXPECT_EQ(CounterValue("compiler.plan_cache.rebuilds"), 0);

  obs::MetricsRegistry::Global().Reset();
  Compiler warm(SmallChip(), options);
  CompiledModel model = warm.Compile(graph);
  ASSERT_TRUE(model.fits);
  // Each of the three signatures is rebuilt once; its later operators reuse
  // that set, yet every operator still counts one hit.
  EXPECT_EQ(CounterValue("compiler.plan_cache.rebuilds"), 3);
  EXPECT_EQ(CounterValue("compiler.cache.hits"), graph.num_ops());
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 0);
  EXPECT_EQ(CounterValue("compiler.search.searches"), 0);
  EXPECT_EQ(model.Fingerprint(), cold_fp);
  obs::MetricsRegistry::Global().Reset();
}

TEST(PlanCacheTest, DifferentChipSpecMissesTheCache) {
  const fs::path dir = FreshCacheDir("chip");
  CompileOptions options;
  options.plan_cache_dir = dir.string();
  const Graph graph = Mlp();
  { Compiler c(SmallChip(64), options); ASSERT_TRUE(c.Compile(graph).fits); }
  ASSERT_EQ(CacheFilesIn(dir).size(), 1u);

  obs::MetricsRegistry::Global().Reset();
  Compiler other(SmallChip(32), options);
  ASSERT_TRUE(other.Compile(graph).fits);
  // A different chip gets a different fingerprint, hence a separate file and
  // fresh searches — never plans searched for other hardware.
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 3);
  EXPECT_EQ(CacheFilesIn(dir).size(), 2u);
  obs::MetricsRegistry::Global().Reset();
}

TEST(PlanCacheTest, DifferentConstraintsMissTheCache) {
  const fs::path dir = FreshCacheDir("constraints");
  CompileOptions options;
  options.plan_cache_dir = dir.string();
  const Graph graph = Mlp();
  { Compiler c(SmallChip(), options); ASSERT_TRUE(c.Compile(graph).fits); }

  obs::MetricsRegistry::Global().Reset();
  CompileOptions loose = options;
  loose.constraints.parallelism_fraction = 0.5;
  Compiler c(SmallChip(), loose);
  ASSERT_TRUE(c.Compile(graph).fits);
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 3);
  EXPECT_EQ(CacheFilesIn(dir).size(), 2u);
  obs::MetricsRegistry::Global().Reset();
}

TEST(PlanCacheTest, DifferentCostModelSamplesMissTheCache) {
  const fs::path dir = FreshCacheDir("samples");
  CompileOptions options;
  options.plan_cache_dir = dir.string();
  const Graph graph = Mlp();
  { Compiler c(SmallChip(), options); ASSERT_TRUE(c.Compile(graph).fits); }

  obs::MetricsRegistry::Global().Reset();
  CompileOptions refit = options;
  refit.cost_model_samples = 120;  // Different fit -> different coefficients.
  Compiler c(SmallChip(), refit);
  ASSERT_TRUE(c.Compile(graph).fits);
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 3);
  EXPECT_EQ(CacheFilesIn(dir).size(), 2u);
  obs::MetricsRegistry::Global().Reset();
}

TEST(PlanCacheTest, CorruptedEntryIsRejectedAndRecompiled) {
  const fs::path dir = FreshCacheDir("corrupt");
  CompileOptions options;
  options.plan_cache_dir = dir.string();
  const Graph graph = Mlp();
  std::string cold_fp;
  {
    Compiler c(SmallChip(), options);
    CompiledModel model = c.Compile(graph);
    ASSERT_TRUE(model.fits);
    cold_fp = model.Fingerprint();
  }
  const std::vector<fs::path> files = CacheFilesIn(dir);
  ASSERT_EQ(files.size(), 1u);

  // Flip a digit inside the file body, leaving the header intact. Whichever
  // entry the flip lands in now fails its checksum and must be dropped.
  std::string content;
  {
    std::ifstream in(files[0]);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const std::size_t plan_pos = content.find("\nplan ");
  ASSERT_NE(plan_pos, std::string::npos);
  const std::size_t digit = content.find_first_of("0123456789", plan_pos + 6);
  ASSERT_NE(digit, std::string::npos);
  content[digit] = content[digit] == '9' ? '8' : '9';
  { std::ofstream out(files[0], std::ios::trunc); out << content; }

  obs::MetricsRegistry::Global().Reset();
  Compiler warm(SmallChip(), options);
  CompiledModel model = warm.Compile(graph);
  ASSERT_TRUE(model.fits);
  // The damaged entry was rejected and re-searched; the result is still
  // byte-identical to the cold compile.
  EXPECT_GE(CounterValue("compiler.plan_cache.rejected"), 1);
  EXPECT_GE(CounterValue("compiler.cache.misses"), 1);
  EXPECT_EQ(model.Fingerprint(), cold_fp);
  obs::MetricsRegistry::Global().Reset();
}

TEST(PlanCacheTest, TruncatedFileIsRejectedWholesale) {
  const fs::path dir = FreshCacheDir("truncated");
  CompileOptions options;
  options.plan_cache_dir = dir.string();
  const Graph graph = Mlp();
  { Compiler c(SmallChip(), options); ASSERT_TRUE(c.Compile(graph).fits); }
  const std::vector<fs::path> files = CacheFilesIn(dir);
  ASSERT_EQ(files.size(), 1u);
  // Replace the file with garbage that fails the header check.
  { std::ofstream out(files[0], std::ios::trunc); out << "not a cache\n"; }

  obs::MetricsRegistry::Global().Reset();
  Compiler warm(SmallChip(), options);
  ASSERT_TRUE(warm.Compile(graph).fits);
  EXPECT_GE(CounterValue("compiler.plan_cache.rejected"), 1);
  EXPECT_EQ(CounterValue("compiler.cache.misses"), 3);
  obs::MetricsRegistry::Global().Reset();
}

TEST(PlanCacheTest, FlushReloadRoundTripsHexfloatValues) {
  const fs::path dir = FreshCacheDir("roundtrip");
  PlanCache writer;
  ASSERT_TRUE(writer.AttachDir(dir.string(), 0x1234abcdu).ok());
  CachedPlanSet entry;
  entry.AddPlan(std::vector<std::int64_t>{4, 16});
  entry.AddTemporal(std::vector<std::int64_t>{1, 2});
  entry.AddTemporal({});
  entry.AddPlan(std::vector<std::int64_t>{8, 8});
  entry.AddTemporal(std::vector<std::int64_t>{2, 1});
  entry.AddTemporal(std::vector<std::int64_t>{4});
  entry.complete_space_log10 = 3.14159265358979311599796346854;
  entry.filtered_count = 42;
  entry.fop_count = 7;
  writer.Insert("sig-a", entry);
  ASSERT_TRUE(writer.Flush().ok());

  PlanCache reader;
  ASSERT_TRUE(reader.AttachDir(dir.string(), 0x1234abcdu).ok());
  EXPECT_EQ(reader.rejected_on_load(), 0);
  ASSERT_EQ(reader.size(), 1);
  const CachedPlanSet* loaded = reader.Lookup("sig-a");
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->num_plans(), 2);
  EXPECT_EQ(loaded->num_tensors(0), 2);
  EXPECT_TRUE(loaded->temporal(0, 1).empty());
  EXPECT_EQ(loaded->temporal(1, 1)[0], 4);
  EXPECT_EQ(*loaded, entry);
  // Hexfloat serialization must be bit-exact, not just close.
  EXPECT_EQ(loaded->complete_space_log10, entry.complete_space_log10);
  EXPECT_EQ(loaded->filtered_count, 42);
  EXPECT_EQ(loaded->fop_count, 7);
  EXPECT_EQ(reader.Lookup("sig-b"), nullptr);
}

TEST(PlanCacheTest, RebuildRejectsAnEntryWithTheWrongTensorCount) {
  const Graph graph = Mlp();
  const Operator& fc1 = graph.op(0);
  const ChipSpec chip = SmallChip();
  const GroundTruthTiming timing(chip);
  const CachedPlanSet entry = ToCachedPlanSet(SearchOperatorPlans(fc1, chip, timing));
  ASSERT_TRUE(RebuildFromCache(entry, fc1, timing, chip).has_value());

  // A checksummed entry can still describe another operator's tensors: it is
  // rejected like a damaged one, so the caller searches afresh.
  CachedPlanSet one_tensor;
  one_tensor.AddPlan(entry.fop(0));
  one_tensor.AddTemporal(entry.temporal(0, 0));
  EXPECT_FALSE(RebuildFromCache(one_tensor, fc1, timing, chip).has_value());
}

TEST(PlanCacheTest, EvictsOldestFilesBeyondMaxFiles) {
  const fs::path dir = FreshCacheDir("evict");
  // Create several caches with distinct fingerprints, oldest first.
  for (std::uint64_t fp = 1; fp <= 5; ++fp) {
    PlanCache cache;
    ASSERT_TRUE(cache.AttachDir(dir.string(), fp, /*max_files=*/16).ok());
    CachedPlanSet entry;
    entry.AddPlan(std::vector<std::int64_t>{1});
    entry.AddTemporal(std::vector<std::int64_t>{1});
    cache.Insert("sig", entry);
    ASSERT_TRUE(cache.Flush().ok());
    // Spread mtimes so eviction order is well-defined.
    const auto stamp = fs::last_write_time(cache.file_path());
    fs::last_write_time(cache.file_path(),
                        stamp - std::chrono::seconds(10 * (6 - fp)));
  }
  ASSERT_EQ(CacheFilesIn(dir).size(), 5u);

  // Attaching with max_files=2 drops the three oldest fingerprints and keeps
  // the two newest (its own fingerprint-99 file does not exist yet — nothing
  // was flushed).
  PlanCache cache;
  ASSERT_TRUE(cache.AttachDir(dir.string(), 99, /*max_files=*/2).ok());
  EXPECT_EQ(CacheFilesIn(dir).size(), 2u);
  EXPECT_FALSE(fs::exists(dir / "plans-0000000000000001.t10cache"));
  EXPECT_FALSE(fs::exists(dir / "plans-0000000000000002.t10cache"));
  EXPECT_FALSE(fs::exists(dir / "plans-0000000000000003.t10cache"));
  EXPECT_TRUE(fs::exists(dir / "plans-0000000000000004.t10cache"));
  EXPECT_TRUE(fs::exists(dir / "plans-0000000000000005.t10cache"));
}

// An entry body followed by its checksum line, as Flush writes it.
std::string WithCrc(const std::string& body, const char* line_end = "\n") {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(Fnv1a64(body)));
  return body + "crc " + hex + line_end;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(PlanCacheTest, CraftedFileLoadsExactlyTheIntactEntries) {
  const fs::path dir = FreshCacheDir("loader");
  constexpr std::uint64_t kFingerprint = 0xfeedu;
  const std::string header = "t10-plan-cache v1\nfingerprint 000000000000feed\n";
  const std::string first_a =
      "entry sig-a\nspace 0x1p+0\nfiltered 1\nvisited 2\nplans 1\nplan fop=2 t=1|1\n";
  std::string flipped_b =
      WithCrc("entry sig-b\nspace 0x1p+1\nfiltered 3\nvisited 4\nplans 1\nplan fop=8 t=2|1\n");
  flipped_b[flipped_b.find("fop=8") + 4] = '9';
  const std::string d =
      "entry sig-d\nspace 0x1.8p+2\nfiltered 6\nvisited 7\nplans 2\n"
      "plan fop=4,4 t=1,2|-\nplan fop=16,1 t=-|1\n";
  const std::string second_a =
      "entry sig-a\nspace 0x1p+2\nfiltered 10\nvisited 11\nplans 1\nplan fop=2 t=2|1\n";
  const std::string crlf_e =
      "entry sig-e\r\nspace 0x1p+0\r\nfiltered 1\r\nvisited 1\r\nplans 0\r\n";
  const std::string spaced_f =
      "entry sig-f\nspace  0x1p-1\nfiltered +12\nvisited \t7\nplans 1\nplan fop= 3,+5 t=1|-\n";
  const std::string trailing_space_h =
      "entry sig-h\nspace 0x1p+0\nfiltered 5 \nvisited 1\nplans 0\n";
  WriteFile(dir / "plans-000000000000feed.t10cache",
            header + WithCrc(first_a) + flipped_b + "stray\n" +
                "entry sig-c\nspace 0x1p+0\nfiltered 1\nvisited 1\nplans 0\n" + WithCrc(d) +
                WithCrc(second_a) + WithCrc(crlf_e, "\r\n") + WithCrc(spaced_f) +
                WithCrc(trailing_space_h) + "entry sig-t\nspace 0x1p+0\nfil");

  // Rejected: the flipped b, the stray line, c (no crc line before d), the
  // \r\n entry, h's trailing space and the truncated tail. The second a
  // replaces the first. Integers follow strtoll's grammar, so f's leading
  // whitespace and '+' signs load. A std::getline loader gives these same
  // counts and, after the flush below, the same bytes.
  PlanCache cache;
  ASSERT_TRUE(cache.AttachDir(dir.string(), kFingerprint).ok());
  EXPECT_EQ(cache.rejected_on_load(), 6);
  EXPECT_EQ(cache.size(), 3);
  ASSERT_NE(cache.Lookup("sig-a"), nullptr);
  EXPECT_EQ(cache.Lookup("sig-a")->filtered_count, 10);
  ASSERT_NE(cache.Lookup("sig-f"), nullptr);
  EXPECT_EQ(cache.Lookup("sig-f")->filtered_count, 12);
  EXPECT_EQ(cache.Lookup("sig-f")->fop(0)[1], 5);
  for (const char* rejected : {"sig-b", "sig-c", "sig-e", "sig-e\r", "sig-h", "sig-t"}) {
    EXPECT_EQ(cache.Lookup(rejected), nullptr) << rejected;
  }

  CachedPlanSet z;
  z.AddPlan(std::vector<std::int64_t>{1});
  z.AddTemporal(std::vector<std::int64_t>{1});
  cache.Insert("sig-z", z);
  ASSERT_TRUE(cache.Flush().ok());
  EXPECT_EQ(ReadFile(cache.file_path()),
            header + WithCrc(second_a) + WithCrc(d) +
                WithCrc("entry sig-f\nspace 0x1p-1\nfiltered 12\nvisited 7\nplans 1\n"
                        "plan fop=3,5 t=1|-\n") +
                WithCrc("entry sig-z\nspace 0x0p+0\nfiltered 0\nvisited 0\nplans 1\n"
                        "plan fop=1 t=1\n"));

  // A whole file with \r\n line endings fails its header; so does an empty
  // one. Either counts one rejection.
  for (const std::string& content : {std::string("t10-plan-cache v1\r\n"), std::string()}) {
    WriteFile(dir / "plans-000000000000feed.t10cache", content);
    PlanCache rejected;
    ASSERT_TRUE(rejected.AttachDir(dir.string(), kFingerprint).ok());
    EXPECT_EQ(rejected.rejected_on_load(), 1);
    EXPECT_EQ(rejected.size(), 0);
  }
}

TEST(PlanCacheTest, DefaultMk2FingerprintIsPinned) {
  // The cache file name of a default IPU Mk2 compile. It hashes probe
  // predictions of the fitted cost model, so any change to the fit's
  // arithmetic (not only to its inputs) moves it and orphans every cache.
  const ChipSpec chip = ChipSpec::IpuMk2();
  const CompileOptions options;
  const GroundTruthTiming truth(chip);
  const FittedCostModel model = FittedCostModel::Fit(truth.truth(), options.cost_model_samples);
  EXPECT_EQ(PlanCache::Fingerprint(chip, options.constraints, model, options.cost_model_samples),
            0xd72e9ba6b7ce4912ull);
}

TEST(PlanCacheTest, AttachMissingDirectoryFails) {
  PlanCache cache;
  const Status status =
      cache.AttachDir("/nonexistent/t10/plan/cache/dir", 0x1u);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(cache.attached());
}

}  // namespace
}  // namespace t10
