// Persistent plan cache: signature keying, fingerprint versioning, warm-hit
// byte-identity, corruption rejection and stale-file eviction.

#include "src/core/pass/plan_cache.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/compiler.h"
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
  entry.fops = {{4, 16}, {8, 8}};
  entry.temporals = {{{1, 2}, {}}, {{2, 1}, {4}}};
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
  EXPECT_EQ(loaded->fops, entry.fops);
  EXPECT_EQ(loaded->temporals, entry.temporals);
  // Hexfloat serialization must be bit-exact, not just close.
  EXPECT_EQ(loaded->complete_space_log10, entry.complete_space_log10);
  EXPECT_EQ(loaded->filtered_count, 42);
  EXPECT_EQ(loaded->fop_count, 7);
  EXPECT_EQ(reader.Lookup("sig-b"), nullptr);
}

TEST(PlanCacheTest, EvictsOldestFilesBeyondMaxFiles) {
  const fs::path dir = FreshCacheDir("evict");
  // Create several caches with distinct fingerprints, oldest first.
  for (std::uint64_t fp = 1; fp <= 5; ++fp) {
    PlanCache cache;
    ASSERT_TRUE(cache.AttachDir(dir.string(), fp, /*max_files=*/16).ok());
    CachedPlanSet entry;
    entry.fops = {{1}};
    entry.temporals = {{{1}}};
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

TEST(PlanCacheTest, AttachMissingDirectoryFails) {
  PlanCache cache;
  const Status status =
      cache.AttachDir("/nonexistent/t10/plan/cache/dir", 0x1u);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(cache.attached());
}

}  // namespace
}  // namespace t10
