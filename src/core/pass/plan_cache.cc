#include "src/core/pass/plan_cache.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/core/plan.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace t10 {
namespace {

namespace fs = std::filesystem;

std::string HexU64(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[v & 0xf];
  }
  return out;
}

// Binary append helpers for fingerprint hashing: fixed-width little-endian so
// the hash never depends on locale or formatting.
void AppendU64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendI64(std::string& buf, std::int64_t v) { AppendU64(buf, static_cast<std::uint64_t>(v)); }

void AppendDouble(std::string& buf, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(buf, bits);
}

std::string JoinInts(std::span<const std::int64_t> v) {
  if (v.empty()) {
    return "-";
  }
  std::ostringstream out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << v[i];
  }
  return out.str();
}

// One decimal integer filling the whole token, in strtoll's grammar: leading
// whitespace, an optional sign, digits; out-of-range values fail.
bool ParseInt(std::string_view token, std::int64_t& out) {
  std::size_t i = 0;
  // isspace in the C locale: ' ' and '\t' through '\r'.
  while (i < token.size() && (token[i] == ' ' || (token[i] >= '\t' && token[i] <= '\r'))) {
    ++i;
  }
  if (i < token.size() && token[i] == '+') {
    ++i;
    if (i < token.size() && token[i] == '-') {
      return false;  // from_chars would take the sign strtoll refuses.
    }
  }
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data() + i, last, out);
  return error == std::errc() && end == last;
}

// Appends the comma-separated integers of `text` ("-" for none) to `out`.
bool AppendInts(std::string_view text, std::vector<std::int64_t>& out) {
  if (text == "-") {
    return true;
  }
  for (;;) {
    const std::size_t comma = text.find(',');
    std::int64_t value = 0;
    if (!ParseInt(text.substr(0, comma), value)) {
      return false;
    }
    out.push_back(value);
    if (comma == std::string_view::npos) {
      return true;
    }
    text.remove_prefix(comma + 1);
  }
}

// strtod (not operator>>) because the file stores doubles as hexfloat for an
// exact round-trip, and istream extraction does not accept hexfloat.
bool ParseDouble(std::string_view text, double& out) {
  if (text.empty()) {
    return false;
  }
  const std::string token(text);
  errno = 0;
  char* end = nullptr;
  out = std::strtod(token.c_str(), &end);
  return errno == 0 && end != token.c_str() && *end == '\0';
}

// Takes the next line off the front of `text` the way std::getline reads
// it: up to a '\n', which is dropped. False once `text` is empty, so a final
// '\n' yields no empty line. The line is a view into `text`'s buffer.
bool NextLine(std::string_view& text, std::string_view& line) {
  if (text.empty()) {
    return false;
  }
  const std::size_t newline = text.find('\n');
  line = text.substr(0, newline);
  text.remove_prefix(newline == std::string_view::npos ? text.size() : newline + 1);
  return true;
}

// The checksummed body of one entry: everything between (and including) its
// "entry" line and its last "plan" line.
std::string EntrySerialization(const std::string& signature, const CachedPlanSet& entry) {
  std::ostringstream out;
  out << "entry " << signature << "\n";
  out << "space " << std::hexfloat << entry.complete_space_log10 << std::defaultfloat << "\n";
  out << "filtered " << entry.filtered_count << "\n";
  out << "visited " << entry.fop_count << "\n";
  out << "plans " << entry.num_plans() << "\n";
  for (int plan = 0; plan < entry.num_plans(); ++plan) {
    out << "plan fop=" << JoinInts(entry.fop(plan)) << " t=";
    for (int tensor = 0; tensor < entry.num_tensors(plan); ++tensor) {
      if (tensor > 0) {
        out << "|";
      }
      out << JoinInts(entry.temporal(plan, tensor));
    }
    out << "\n";
  }
  return out.str();
}

// Parses the lines of one checksummed entry block into `entry`, which must be
// empty. `ints` is scratch space reused across blocks.
bool ParseEntryBlock(std::string_view block, std::vector<std::int64_t>& ints,
                     std::string& signature, CachedPlanSet& entry) {
  std::string_view line;
  std::string_view value;
  auto field = [&](std::string_view key) {
    if (!NextLine(block, line) || !line.starts_with(key)) {
      return false;
    }
    value = line.substr(key.size());
    return true;
  };
  if (!field("entry ") || value.empty()) {
    return false;
  }
  signature.assign(value);
  std::int64_t num_plans = 0;
  if (!field("space ") || !ParseDouble(value, entry.complete_space_log10) ||
      !field("filtered ") || !ParseInt(value, entry.filtered_count) || !field("visited ") ||
      !ParseInt(value, entry.fop_count) || !field("plans ") || !ParseInt(value, num_plans) ||
      num_plans < 0) {
    return false;
  }
  constexpr std::string_view kPlanPrefix = "plan fop=";
  for (std::int64_t i = 0; i < num_plans; ++i) {
    if (!NextLine(block, line) || !line.starts_with(kPlanPrefix)) {
      return false;
    }
    const std::size_t tpos = line.find(" t=");
    if (tpos == std::string_view::npos) {
      return false;
    }
    ints.clear();
    if (!AppendInts(line.substr(kPlanPrefix.size(), tpos - kPlanPrefix.size()), ints)) {
      return false;
    }
    entry.AddPlan(ints);
    std::string_view rest = line.substr(tpos + 3);
    for (;;) {
      const std::size_t bar = rest.find('|');
      ints.clear();
      if (!AppendInts(rest.substr(0, bar), ints)) {
        return false;
      }
      entry.AddTemporal(ints);
      if (bar == std::string_view::npos) {
        break;
      }
      rest.remove_prefix(bar + 1);
    }
  }
  return block.empty();  // Exactly `num_plans` plan lines.
}

std::string FormatHeader() {
  return "t10-plan-cache v" + std::to_string(PlanCache::kFormatVersion);
}

// Loads every entry whose checksum and syntax hold; anything else (bad
// header, wrong fingerprint, truncated or bit-flipped entries) is counted as
// rejected and skipped. Never trusts a damaged entry. One pass over the
// file's bytes: an entry's checksum covers the contiguous bytes from its
// "entry" line to its "crc" line, so they are hashed in place.
void LoadCacheFile(std::string_view text, std::uint64_t expected_fingerprint,
                   std::map<std::string, CachedPlanSet>& entries, std::int64_t& rejected) {
  std::string_view line;
  if (!NextLine(text, line) || line != FormatHeader()) {
    ++rejected;
    return;
  }
  if (!NextLine(text, line) || line != "fingerprint " + HexU64(expected_fingerprint)) {
    ++rejected;
    return;
  }
  const char* block_start = nullptr;  // First byte of the open entry, if any.
  std::vector<std::int64_t> ints;
  std::string signature;
  while (NextLine(text, line)) {
    if (line.starts_with("entry ")) {
      if (block_start != nullptr) {
        ++rejected;  // Previous entry never reached its checksum line.
      }
      block_start = line.data();
      continue;
    }
    if (block_start == nullptr) {
      ++rejected;  // Stray bytes between entries.
      continue;
    }
    if (line.starts_with("crc ")) {
      const std::string_view block(block_start,
                                   static_cast<std::size_t>(line.data() - block_start));
      CachedPlanSet entry;
      if (line.substr(4) == HexU64(Fnv1a64(block)) &&
          ParseEntryBlock(block, ints, signature, entry)) {
        entries.insert_or_assign(signature, std::move(entry));
      } else {
        ++rejected;
      }
      block_start = nullptr;
    }
  }
  if (block_start != nullptr) {
    ++rejected;  // File truncated mid-entry.
  }
}

// The bytes of the file at `path`; nullopt if it cannot be opened.
std::optional<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

// Keeps at most `max_files` cache files in `dir` (ours always survives);
// oldest-by-mtime go first. Bounds disk growth across chip/constraint
// variations without ever touching the file the current compile uses.
void EvictStaleCacheFiles(const std::string& dir, const std::string& keep_path, int max_files) {
  std::vector<std::pair<fs::file_time_type, fs::path>> files;
  std::error_code ec;
  for (const auto& dir_entry : fs::directory_iterator(dir, ec)) {
    const fs::path& path = dir_entry.path();
    const std::string filename = path.filename().string();
    if (filename.rfind("plans-", 0) == 0 && path.extension() == ".t10cache") {
      std::error_code time_ec;
      files.emplace_back(fs::last_write_time(path, time_ec), path);
    }
  }
  if (static_cast<int>(files.size()) <= max_files) {
    return;
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int to_remove = static_cast<int>(files.size()) - max_files;
  for (const auto& [mtime, path] : files) {
    if (to_remove <= 0) {
      break;
    }
    if (path.string() == keep_path) {
      continue;
    }
    std::error_code remove_ec;
    if (fs::remove(path, remove_ec)) {
      T10_LOG(Info) << "plan cache: evicted stale " << path.string();
    }
    --to_remove;
  }
}

}  // namespace

std::string OperatorSignature(const Operator& op) {
  std::ostringstream sig;
  sig << OpKindName(op.kind()) << "/" << op.elementwise_cost() << "/";
  for (const Axis& axis : op.axes()) {
    sig << axis.length << (axis.reduction ? "r" : "p") << ",";
  }
  auto tensor_sig = [&sig](const TensorRef& t) {
    sig << "|" << DataTypeName(t.dtype);
    for (const DimRef& dim : t.dims) {
      sig << ":" << dim.axis;
      if (dim.compound()) {
        sig << "*" << dim.stride << "+" << dim.minor_axis;
      }
    }
  };
  for (const TensorRef& input : op.inputs()) {
    tensor_sig(input);
  }
  tensor_sig(op.output());
  return sig.str();
}

std::uint64_t Fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

void CachedPlanSet::AddPlan(std::span<const std::int64_t> fop) {
  values.insert(values.end(), fop.begin(), fop.end());
  list_end.push_back(static_cast<std::uint32_t>(values.size()));
  plan_list.push_back(static_cast<std::uint32_t>(list_end.size()));
}

void CachedPlanSet::AddTemporal(std::span<const std::int64_t> temporal) {
  values.insert(values.end(), temporal.begin(), temporal.end());
  list_end.push_back(static_cast<std::uint32_t>(values.size()));
  plan_list.back() = static_cast<std::uint32_t>(list_end.size());
}

std::span<const std::int64_t> CachedPlanSet::List(std::size_t list) const {
  const std::size_t begin = list == 0 ? 0 : list_end[list - 1];
  return std::span<const std::int64_t>(values).subspan(begin, list_end[list] - begin);
}

CachedPlanSet ToCachedPlanSet(const IntraOpResult& result) {
  CachedPlanSet cached;
  cached.complete_space_log10 = result.complete_space_log10;
  cached.filtered_count = result.filtered_count;
  cached.fop_count = result.fop_count;
  for (const PlanCandidate& candidate : result.pareto) {
    cached.AddPlan(candidate.plan.fop());
    for (const RTensorPlan& tensor_plan : candidate.plan.tensors()) {
      cached.AddTemporal(tensor_plan.temporal);
    }
  }
  return cached;
}

std::optional<IntraOpResult> RebuildFromCache(const CachedPlanSet& entry, const Operator& op,
                                              const TimingSource& cost_model,
                                              const ChipSpec& chip) {
  IntraOpResult result;
  result.complete_space_log10 = entry.complete_space_log10;
  result.filtered_count = entry.filtered_count;
  result.fop_count = entry.fop_count;
  result.pareto.reserve(static_cast<std::size_t>(entry.num_plans()));
  const std::size_t num_tensors = op.inputs().size() + 1;
  std::vector<std::vector<std::int64_t>> temporal(num_tensors);  // Reused by every plan.
  for (int i = 0; i < entry.num_plans(); ++i) {
    if (entry.num_tensors(i) != static_cast<int>(num_tensors)) {
      return std::nullopt;  // Not this signature's tensor count; re-search.
    }
    for (std::size_t t = 0; t < num_tensors; ++t) {
      const std::span<const std::int64_t> factors = entry.temporal(i, static_cast<int>(t));
      temporal[t].assign(factors.begin(), factors.end());
    }
    ExecutionPlan plan;
    if (!plan.Rebuild(op, entry.fop(i), temporal)) {
      return std::nullopt;  // Incompatible or damaged entry; re-search.
    }
    const PlanMetrics predicted = plan.Evaluate(cost_model, chip);
    result.pareto.push_back(PlanCandidate{std::move(plan), predicted});
  }
  return result;
}

PlanCache::~PlanCache() {
  if (attached_ && dirty_) {
    const Status status = Flush();
    if (!status.ok()) {
      T10_LOG(Warning) << "plan cache: final flush failed: " << status.ToString();
    }
  }
}

std::uint64_t PlanCache::Fingerprint(const ChipSpec& chip, const SearchConstraints& constraints,
                                     const FittedCostModel& cost_model, int cost_model_samples) {
  std::string buf;
  buf += chip.name;
  buf.push_back('\0');
  AppendI64(buf, chip.num_cores);
  AppendI64(buf, chip.cores_per_chip);
  AppendI64(buf, chip.core_memory_bytes);
  AppendDouble(buf, chip.link_bandwidth);
  AppendDouble(buf, chip.interchip_bandwidth);
  AppendDouble(buf, chip.core_flops);
  AppendDouble(buf, chip.local_memory_bandwidth);
  AppendDouble(buf, chip.sync_latency_seconds);
  AppendI64(buf, chip.shift_buffer_bytes);
  AppendDouble(buf, chip.offchip_bandwidth);
  AppendI64(buf, chip.amp_alignment);
  for (const int core : chip.health.failed_cores) {
    AppendI64(buf, core);
  }
  buf.push_back('\1');
  for (const auto& [src, dst] : chip.health.failed_links) {
    AppendI64(buf, src);
    AppendI64(buf, dst);
  }
  buf.push_back('\2');
  AppendDouble(buf, constraints.parallelism_fraction);
  AppendDouble(buf, constraints.padding_threshold);
  AppendI64(buf, constraints.max_rotating_dims);
  AppendI64(buf, constraints.max_evaluations);
  AppendI64(buf, cost_model_samples);
  // Probe predictions pin the fitted coefficients themselves: any refit that
  // changes the regression (different truth, noise, samples) moves at least
  // one probe's predicted time and therefore the fingerprint. Fixed-seed
  // probes keep the fingerprint deterministic across runs.
  Rng rng(0x7107u);
  for (int cls = 0; cls < kNumKernelClasses; ++cls) {
    for (int probe = 0; probe < 4; ++probe) {
      const SubTaskShape shape = FittedCostModel::RandomShape(static_cast<KernelClass>(cls), rng);
      AppendDouble(buf, cost_model.SubTaskSeconds(shape));
    }
  }
  for (const std::int64_t bytes : {std::int64_t{64}, std::int64_t{8192}, std::int64_t{1} << 20}) {
    AppendDouble(buf, cost_model.ShiftSeconds(bytes));
  }
  return Fnv1a64(buf);
}

Status PlanCache::AttachDir(const std::string& dir, std::uint64_t fingerprint, int max_files) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return InvalidArgumentError("plan cache directory does not exist: " + dir);
  }
  fingerprint_ = fingerprint;
  path_ = (fs::path(dir) / ("plans-" + HexU64(fingerprint) + ".t10cache")).string();
  attached_ = true;
  dirty_ = false;
  entries_.clear();
  rejected_on_load_ = 0;

  if (const std::optional<std::string> text = ReadWholeFile(path_)) {
    LoadCacheFile(*text, fingerprint_, entries_, rejected_on_load_);
    if (rejected_on_load_ > 0) {
      T10_LOG(Warning) << "plan cache: rejected " << rejected_on_load_
                       << " damaged entr(y/ies) in " << path_ << "; they will be recompiled";
    }
  }
  EvictStaleCacheFiles(dir, path_, max_files < 1 ? 1 : max_files);
  return Status::Ok();
}

const CachedPlanSet* PlanCache::Lookup(const std::string& signature) const {
  const auto it = entries_.find(signature);
  return it == entries_.end() ? nullptr : &it->second;
}

void PlanCache::Insert(const std::string& signature, CachedPlanSet entry) {
  entries_[signature] = std::move(entry);
  dirty_ = true;
}

Status PlanCache::Flush() {
  if (!attached_ || !dirty_) {
    return Status::Ok();
  }
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.good()) {
      return InvalidArgumentError("cannot write plan cache file: " + tmp);
    }
    out << FormatHeader() << "\n";
    out << "fingerprint " << HexU64(fingerprint_) << "\n";
    for (const auto& [signature, entry] : entries_) {
      const std::string raw = EntrySerialization(signature, entry);
      out << raw << "crc " << HexU64(Fnv1a64(raw)) << "\n";
    }
    out.flush();
    if (!out.good()) {
      return InvalidArgumentError("short write to plan cache file: " + tmp);
    }
  }
  // Atomic replace: a crashed or concurrent compile can leave a stale cache,
  // never a half-written one (half-written entries would fail their CRC
  // anyway, but this keeps the common path clean).
  std::error_code ec;
  fs::rename(tmp, path_, ec);
  if (ec) {
    return InvalidArgumentError("cannot replace plan cache file " + path_ + ": " + ec.message());
  }
  dirty_ = false;
  return Status::Ok();
}

}  // namespace t10
