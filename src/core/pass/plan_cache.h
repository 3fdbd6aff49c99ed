// Persistent intra-operator plan cache (paper §6.3: "each operator's final
// plans can be cached and reused for identical operators").
//
// The cache key is the operator *signature* — kind, per-element cost, axis
// lengths/roles and operand dtypes/dimension maps — everything the search
// reads; operator names deliberately do not participate. The cached value is
// the Pareto set's plan *configurations* (F_op and per-tensor temporal
// factors), not ExecutionPlans, which would dangle across graphs: a hit
// rebuilds plans against the requesting operator and re-evaluates them under
// the current cost model, which is deterministic, so a warm compile is
// byte-identical to a cold one.
//
// Persistence: with a cache directory attached, entries load from and flush
// to `<dir>/plans-<fingerprint>.t10cache`, a line-oriented text format with a
// version header and a per-entry FNV-1a checksum. The fingerprint hashes the
// chip spec, the search constraints and probe predictions of the fitted cost
// model, so a compile never reuses plans searched under different hardware,
// constraints or cost-model coefficients — it simply opens a different file.
// Corrupted or stale entries are rejected (counted under
// compiler.plan_cache.rejected) and recompiled, never trusted.

#ifndef T10_SRC_CORE_PASS_PLAN_CACHE_H_
#define T10_SRC_CORE_PASS_PLAN_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cost_model.h"
#include "src/core/search.h"
#include "src/hardware/chip_spec.h"
#include "src/ir/operator.h"
#include "src/util/status.h"

namespace t10 {

// The search-relevant identity of an operator; equal signatures guarantee
// equal search results (used as the cache key).
std::string OperatorSignature(const Operator& op);

// 64-bit FNV-1a over `data`, chainable via `seed`.
std::uint64_t Fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ull);

// One cached search result: enough to rebuild the Pareto frontier against any
// operator with the same signature. Stored flat, so loading an entry makes no
// per-plan allocation: every plan is a run of integer lists in `values` (its
// F_op, then one temporal-factor list per tensor, inputs first), `list_end`
// holds the end offset of each list and `plan_list` the index of each plan's
// first list, with one closing index past the last plan.
struct CachedPlanSet {
  std::vector<std::int64_t> values;
  std::vector<std::uint32_t> list_end;
  std::vector<std::uint32_t> plan_list = {0};
  double complete_space_log10 = 0.0;
  std::int64_t filtered_count = 0;
  std::int64_t fop_count = 0;

  int num_plans() const { return static_cast<int>(plan_list.size()) - 1; }
  std::span<const std::int64_t> fop(int plan) const { return List(FirstList(plan)); }
  int num_tensors(int plan) const {
    return static_cast<int>(FirstList(plan + 1) - FirstList(plan)) - 1;
  }
  std::span<const std::int64_t> temporal(int plan, int tensor) const {
    return List(FirstList(plan) + 1 + static_cast<std::size_t>(tensor));
  }

  // Opens a plan with F_op `fop`; AddTemporal then appends its tensors.
  void AddPlan(std::span<const std::int64_t> fop);
  void AddTemporal(std::span<const std::int64_t> temporal);

  bool operator==(const CachedPlanSet&) const = default;

 private:
  std::size_t FirstList(int plan) const { return plan_list[static_cast<std::size_t>(plan)]; }
  std::span<const std::int64_t> List(std::size_t list) const;
};

// Converts a search result into its cacheable configuration.
CachedPlanSet ToCachedPlanSet(const IntraOpResult& result);

// Rebuilds a search result for `op` from a cached plan set, re-evaluating
// every plan under `cost_model`. Returns nullopt if any configuration no
// longer constructs a valid plan (a corrupted or incompatible entry) — the
// caller falls back to a fresh search.
std::optional<IntraOpResult> RebuildFromCache(const CachedPlanSet& entry, const Operator& op,
                                              const TimingSource& cost_model,
                                              const ChipSpec& chip);

class PlanCache {
 public:
  // On-disk format version; bumped whenever the entry layout changes.
  static constexpr int kFormatVersion = 1;
  // Default cap on cache files kept per directory (stale fingerprints).
  static constexpr int kDefaultMaxFiles = 16;

  PlanCache() = default;
  ~PlanCache();  // Best-effort Flush() of a dirty attached cache.

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Compatibility fingerprint of a (chip, constraints, cost model) triple.
  // Includes probe predictions of the fitted model, so a model refit with
  // different sample counts (and therefore different coefficients) changes
  // the fingerprint even on identical hardware.
  static std::uint64_t Fingerprint(const ChipSpec& chip, const SearchConstraints& constraints,
                                   const FittedCostModel& cost_model, int cost_model_samples);

  // Attaches a persistent directory: loads `<dir>/plans-<fingerprint>.t10cache`
  // if present (corrupt entries are skipped and counted) and evicts the
  // oldest cache files beyond `max_files`. The directory must exist.
  Status AttachDir(const std::string& dir, std::uint64_t fingerprint,
                   int max_files = kDefaultMaxFiles);

  bool attached() const { return attached_; }
  const std::string& file_path() const { return path_; }

  // nullptr on miss. The pointer stays valid until the next Insert.
  const CachedPlanSet* Lookup(const std::string& signature) const;

  // Inserts or replaces one entry and marks the cache dirty.
  void Insert(const std::string& signature, CachedPlanSet entry);

  // Rewrites the attached cache file if dirty; no-op when memory-only.
  Status Flush();

  // Entries currently held (loaded + inserted).
  int size() const { return static_cast<int>(entries_.size()); }

  // Entries rejected while loading the attached file (corruption, bad
  // checksum, version mismatch — the whole file counts as one rejection).
  std::int64_t rejected_on_load() const { return rejected_on_load_; }

 private:
  std::map<std::string, CachedPlanSet> entries_;
  std::string path_;
  std::uint64_t fingerprint_ = 0;
  bool attached_ = false;
  bool dirty_ = false;
  std::int64_t rejected_on_load_ = 0;
};

}  // namespace t10

#endif  // T10_SRC_CORE_PASS_PLAN_CACHE_H_
