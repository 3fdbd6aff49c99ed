#include "tools/lint_engine.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/obs/names.h"

namespace t10 {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Source views.
//
// Both views preserve the byte offsets and line structure of the original
// text, so a match position in either view maps straight back to a line
// number in the file:
//   nocomment  — comments blanked, string/char literals intact (name
//                extraction reads literal contents here).
//   scrubbed   — comments AND literal contents blanked (token rules match
//                here, so "std::mutex" in a doc string never fires).
// ---------------------------------------------------------------------------

struct Views {
  std::string nocomment;
  std::string scrubbed;
};

Views BuildViews(const std::string& text) {
  Views v;
  v.nocomment.reserve(text.size());
  v.scrubbed.reserve(text.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          v.nocomment += "  ";
          v.scrubbed += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          v.nocomment += "  ";
          v.scrubbed += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          v.nocomment += c;
          v.scrubbed += c;
        } else if (c == '\'') {
          state = State::kChar;
          v.nocomment += c;
          v.scrubbed += c;
        } else {
          v.nocomment += c;
          v.scrubbed += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          v.nocomment += c;
          v.scrubbed += c;
        } else {
          v.nocomment += ' ';
          v.scrubbed += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          v.nocomment += "  ";
          v.scrubbed += "  ";
          ++i;
        } else {
          v.nocomment += c == '\n' ? '\n' : ' ';
          v.scrubbed += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          v.nocomment += c;
          v.nocomment += next;
          v.scrubbed += "  ";
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          v.nocomment += c;
          v.scrubbed += c;
        } else {
          v.nocomment += c;
          v.scrubbed += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return v;
}

int LineOfOffset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<int>(std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(
                                                           std::min(offset, text.size())),
                                         '\n'));
}

bool IsIdentChar(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

// True when text[pos..] begins the identifier `word` at a clean boundary.
bool TokenAt(const std::string& text, std::size_t pos, const std::string& word) {
  if (text.compare(pos, word.size(), word) != 0) {
    return false;
  }
  if (pos > 0 && (IsIdentChar(text[pos - 1]) || text[pos - 1] == ':')) {
    return false;
  }
  const std::size_t end = pos + word.size();
  return end >= text.size() || !IsIdentChar(text[end]);
}

// ---------------------------------------------------------------------------
// NOLINT suppressions.
//
// Convention (enforced by lint.nolint.missing-reason): every suppression
// names its category and says why —
//   ... // NOLINT(lint.serve.check): startup invariant, cannot fire per-request
//   // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before threads exist
// A suppression on line L (or a NOLINTNEXTLINE on L-1) silences findings of
// that category on L.
// ---------------------------------------------------------------------------

struct Suppressions {
  // line -> categories silenced on that line.
  std::map<int, std::set<std::string>> by_line;
  std::vector<Finding> malformed;  // lint.nolint.missing-reason findings.
};

Suppressions ScanNolint(const std::string& path, const std::string& text) {
  Suppressions sup;
  std::istringstream stream(text);
  std::string line;
  int lineno = 0;
  while (std::getline(stream, line)) {
    ++lineno;
    // Only actual suppression markers count: a comment-leading NOLINT whose
    // token ends in '(', ':' or end-of-line. Prose that merely talks about
    // the word (like this comment) never trips the rule.
    std::size_t marker = line.find("// NOLINT");
    if (marker == std::string::npos) {
      marker = line.find("//NOLINT");
    }
    if (marker == std::string::npos) {
      continue;
    }
    const std::size_t pos = line.find("NOLINT", marker);
    const bool nextline = line.compare(pos, 14, "NOLINTNEXTLINE") == 0;
    const std::size_t after = pos + (nextline ? 14 : 6);
    if (after < line.size() && line[after] != '(' && line[after] != ':') {
      continue;
    }
    std::string category;
    std::size_t rest = after;
    if (after < line.size() && line[after] == '(') {
      const std::size_t close = line.find(')', after);
      if (close != std::string::npos) {
        category = line.substr(after + 1, close - after - 1);
        rest = close + 1;
      }
    }
    // Reason: "): <nonempty text>" after the category.
    bool has_reason = false;
    if (rest < line.size() && line[rest] == ':') {
      const std::string reason = line.substr(rest + 1);
      has_reason = reason.find_first_not_of(" \t") != std::string::npos;
    }
    if (category.empty() || !has_reason) {
      sup.malformed.push_back(
          {path, lineno, "lint.nolint.missing-reason",
           "NOLINT without a category and reason",
           "write `NOLINT(<rule-or-check>): <why this occurrence is safe>`"});
    }
    if (!category.empty()) {
      sup.by_line[lineno + (nextline ? 1 : 0)].insert(category);
    }
  }
  return sup;
}

bool Suppressed(const Suppressions& sup, int line, const std::string& rule) {
  const auto it = sup.by_line.find(line);
  return it != sup.by_line.end() && it->second.count(rule) > 0;
}

// ---------------------------------------------------------------------------
// Rule: lint.sync.raw-primitive
// ---------------------------------------------------------------------------

const char* const kRawPrimitives[] = {
    "mutex",          "timed_mutex",  "recursive_mutex",        "recursive_timed_mutex",
    "shared_mutex",   "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
};

const char* const kRawHeaders[] = {"<mutex>", "<shared_mutex>", "<condition_variable>"};

void CheckRawPrimitives(const std::string& path, const Views& views,
                        std::vector<Finding>* findings) {
  const std::string& text = views.scrubbed;
  for (const char* name : kRawPrimitives) {
    const std::string token = std::string("std::") + name;
    std::size_t pos = 0;
    while ((pos = text.find(token, pos)) != std::string::npos) {
      // `std::` is never preceded by an identifier char in valid code, and
      // the suffix boundary keeps std::mutex from matching inside
      // std::mutex_like_thing.
      const std::size_t end = pos + token.size();
      if (end >= text.size() || !IsIdentChar(text[end])) {
        findings->push_back({path, LineOfOffset(text, pos), "lint.sync.raw-primitive",
                             "raw " + token + " outside src/util/sync.h",
                             "use t10::Mutex / MutexLock / CondVar / SharedMutex from "
                             "src/util/sync.h so the thread-safety analysis and the "
                             "lock-order detector see the acquisition"});
      }
      pos = end;
    }
  }
  for (const char* header : kRawHeaders) {
    const std::string token = std::string("#include ") + header;
    const std::size_t pos = text.find(token);
    if (pos != std::string::npos) {
      findings->push_back({path, LineOfOffset(text, pos), "lint.sync.raw-primitive",
                           std::string("direct include of ") + header +
                               " outside src/util/sync.h",
                           "include \"src/util/sync.h\" instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lint.serve.check
// ---------------------------------------------------------------------------

void CheckServeAborts(const std::string& path, const Views& views,
                      std::vector<Finding>* findings) {
  const std::string& text = views.scrubbed;
  std::size_t pos = 0;
  while ((pos = text.find("T10_CHECK", pos)) != std::string::npos) {
    if (TokenAt(text, pos, "T10_CHECK") || TokenAt(text, pos, "T10_CHECK_EQ") ||
        TokenAt(text, pos, "T10_CHECK_NE") || TokenAt(text, pos, "T10_CHECK_GE") ||
        TokenAt(text, pos, "T10_CHECK_GT") || TokenAt(text, pos, "T10_CHECK_LE") ||
        TokenAt(text, pos, "T10_CHECK_LT")) {
      findings->push_back({path, LineOfOffset(text, pos), "lint.serve.check",
                           "T10_CHECK aborts the serving process",
                           "return a t10::Status on request paths; for a true startup "
                           "invariant add `NOLINT(lint.serve.check): <why it cannot fire "
                           "at request time>`"});
    }
    pos += 9;  // strlen("T10_CHECK")
  }
}

// ---------------------------------------------------------------------------
// Rule: lint.determinism.banned-call
// ---------------------------------------------------------------------------

const char* const kBannedCalls[] = {"rand",      "srand", "random", "drand48", "lrand48",
                                    "localtime", "gmtime", "ctime",  "asctime", "time"};

void CheckBannedCalls(const std::string& path, const Views& views,
                      std::vector<Finding>* findings) {
  const std::string& text = views.scrubbed;
  for (const char* name : kBannedCalls) {
    const std::string word = name;
    std::size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
      const std::size_t end = pos + word.size();
      // Identifier boundaries, and not a member/qualified call (.time(),
      // clock::time_point) — except an explicit std:: prefix, which IS the
      // libc call.
      bool qualified_std = pos >= 5 && text.compare(pos - 5, 5, "std::") == 0;
      bool boundary_ok = (pos == 0 || (!IsIdentChar(text[pos - 1]) && text[pos - 1] != '.' &&
                                       text[pos - 1] != ':' && text[pos - 1] != '>')) ||
                         qualified_std;
      if (qualified_std && pos >= 6 && IsIdentChar(text[pos - 6])) {
        boundary_ok = false;  // my_std::time — not the libc one.
      }
      std::size_t call = end;
      while (call < text.size() && (text[call] == ' ' || text[call] == '\t')) {
        ++call;
      }
      if (boundary_ok && call < text.size() && text[call] == '(' &&
          (end >= text.size() || !IsIdentChar(text[end]))) {
        findings->push_back({path, LineOfOffset(text, pos), "lint.determinism.banned-call",
                             std::string("call to ") + word +
                                 "() in deterministic code",
                             "use t10::Rng (seeded) for randomness and "
                             "std::chrono::steady_clock for time"});
      }
      pos = end;
    }
  }
}

// ---------------------------------------------------------------------------
// Rules: lint.obs.name-grammar / lint.obs.unregistered-name
// ---------------------------------------------------------------------------

// Splits the top-level arguments of the call whose '(' is at `open` in the
// nocomment view. Returns offsets+texts; empty when parens never balance.
struct Arg {
  std::size_t offset = 0;
  std::string text;
};

std::vector<Arg> SplitArgs(const std::string& text, std::size_t open) {
  std::vector<Arg> args;
  int depth = 1;
  bool in_string = false;
  std::size_t start = open + 1;
  for (std::size_t i = open + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '(' || c == '[' || c == '{') {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) {
        args.push_back({start, text.substr(start, i - start)});
        return args;
      }
    } else if (c == ',' && depth == 1) {
      args.push_back({start, text.substr(start, i - start)});
      start = i + 1;
    }
  }
  return {};  // Unbalanced (truncated file); nothing to check.
}

// If `arg` is exactly one string literal (concatenated literals count),
// returns its content; otherwise nullopt-style empty with ok=false.
bool LiteralContent(const std::string& arg, std::string* content) {
  std::size_t i = arg.find_first_not_of(" \t\n");
  if (i == std::string::npos || arg[i] != '"') {
    return false;
  }
  std::string out;
  while (i < arg.size() && arg[i] == '"') {
    ++i;
    while (i < arg.size() && arg[i] != '"') {
      if (arg[i] == '\\') {
        ++i;
      }
      out += arg[i];
      ++i;
    }
    if (i >= arg.size()) {
      return false;  // Unterminated.
    }
    ++i;  // Closing quote.
    i = arg.find_first_not_of(" \t\n", i);
    if (i == std::string::npos) {
      break;
    }
    if (arg[i] != '"') {
      return false;  // "literal" + dynamic — treat as dynamic.
    }
  }
  *content = out;
  return true;
}

enum class NameKind { kMetric, kJournalEvent, kJournalSubsystem };

void CheckName(const std::string& path, const std::string& text, std::size_t offset,
               const std::string& name, NameKind kind, std::vector<Finding>* findings) {
  const int line = LineOfOffset(text, offset);
  // Subsystem tags are single segments ("serve"); only dotted names carry
  // the grammar rule.
  if (kind != NameKind::kJournalSubsystem && !obs::MatchesNameGrammar(name)) {
    findings->push_back({path, line, "lint.obs.name-grammar",
                         "name \"" + name + "\" violates the dotted lowercase grammar",
                         "use `subsystem.noun.verb` segments of [a-z0-9_]+"});
    return;
  }
  bool registered = true;
  const char* table = "";
  switch (kind) {
    case NameKind::kMetric:
      registered = obs::IsRegisteredMetricName(name);
      table = "kMetricNames";
      break;
    case NameKind::kJournalEvent:
      registered = obs::IsRegisteredJournalEvent(name);
      table = "kJournalEvents";
      break;
    case NameKind::kJournalSubsystem:
      registered = obs::IsRegisteredJournalSubsystem(name);
      table = "kJournalSubsystems";
      break;
  }
  if (!registered) {
    findings->push_back({path, line, "lint.obs.unregistered-name",
                         "name \"" + name + "\" is not declared in src/obs/names.cc",
                         std::string("add it to ") + table +
                             " (sorted) or fix the typo at the call site"});
  }
}

void CheckObsNames(const std::string& path, const Views& views,
                   std::vector<Finding>* findings) {
  // The table itself is allowed to contain the names.
  if (path.find("src/obs/names.cc") != std::string::npos) {
    return;
  }
  struct Call {
    const char* token;
    int arg;  // Which argument carries the name.
    NameKind kind;
  };
  // EventJournal::Append(severity, subsystem, event, ...) — obs::Log is the
  // same shape shifted by the journal pointer.
  const Call kCalls[] = {
      {"GetCounter", 0, NameKind::kMetric},
      {"GetGauge", 0, NameKind::kMetric},
      {"GetHistogram", 0, NameKind::kMetric},
      {"Log", 2, NameKind::kJournalSubsystem},
      {"Log", 3, NameKind::kJournalEvent},
      {"Append", 1, NameKind::kJournalSubsystem},
      {"Append", 2, NameKind::kJournalEvent},
  };
  const std::string& scrubbed = views.scrubbed;
  const std::string& nocomment = views.nocomment;
  for (const Call& call : kCalls) {
    std::size_t pos = 0;
    const std::string token = call.token;
    while ((pos = scrubbed.find(token, pos)) != std::string::npos) {
      if (!TokenAt(scrubbed, pos, token) &&
          // obs::Log is colon-qualified; allow the obs:: qualifier through
          // the boundary.
          !(pos >= 5 && scrubbed.compare(pos - 5, 5, "obs::") == 0)) {
        pos += token.size();
        continue;
      }
      std::size_t open = pos + token.size();
      while (open < scrubbed.size() &&
             (scrubbed[open] == ' ' || scrubbed[open] == '\t' || scrubbed[open] == '\n')) {
        ++open;
      }
      if (open >= scrubbed.size() || scrubbed[open] != '(') {
        pos += token.size();
        continue;
      }
      const std::vector<Arg> args = SplitArgs(nocomment, open);
      if (static_cast<std::size_t>(call.arg) < args.size()) {
        std::string name;
        if (LiteralContent(args[static_cast<std::size_t>(call.arg)].text, &name)) {
          CheckName(path, nocomment, args[static_cast<std::size_t>(call.arg)].offset, name,
                    call.kind, findings);
        }
      }
      pos += token.size();
    }
  }
}

// ---------------------------------------------------------------------------
// Path classification.
// ---------------------------------------------------------------------------

std::string Normalize(const std::string& path) {
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool UnderDir(const std::string& path, const std::string& dir) {
  const std::string p = Normalize(path);
  return p.rfind(dir, 0) == 0 || p.find("/" + dir) != std::string::npos;
}

bool IsSyncSource(const std::string& path) {
  const std::string p = Normalize(path);
  return p.size() >= 15 && (p.find("src/util/sync.h") != std::string::npos ||
                            p.find("src/util/sync.cc") != std::string::npos);
}

}  // namespace

std::string Finding::Format() const {
  std::string out = file + ":" + std::to_string(line) + ": error[" + rule + "] " + message;
  if (!hint.empty()) {
    out += " (hint: " + hint + ")";
  }
  return out;
}

std::vector<Finding> LintFile(const std::string& path, const std::string& contents) {
  std::vector<Finding> findings;
  const Views views = BuildViews(contents);
  const Suppressions sup = ScanNolint(path, contents);

  if (!IsSyncSource(path)) {
    CheckRawPrimitives(path, views, &findings);
  }
  if (UnderDir(path, "src/serve/")) {
    CheckServeAborts(path, views, &findings);
  }
  if (UnderDir(path, "src/")) {
    CheckBannedCalls(path, views, &findings);
  }
  CheckObsNames(path, views, &findings);

  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&sup](const Finding& f) {
                                  return Suppressed(sup, f.line, f.rule);
                                }),
                 findings.end());
  findings.insert(findings.end(), sup.malformed.begin(), sup.malformed.end());
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return findings;
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::vector<Finding> findings;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end; it != end && !ec;
           it.increment(ec)) {
        if (!it->is_regular_file()) {
          continue;
        }
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".cc") {
          files.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(path);
    } else {
      findings.push_back({path, 0, "lint.io.unreadable", "path does not exist",
                          "check the path passed to t10-lint"});
    }
  }
  std::sort(files.begin(), files.end());
  for (const std::string& file : files) {
    std::ifstream stream(file);
    if (!stream.good()) {
      findings.push_back({file, 0, "lint.io.unreadable", "cannot open file", ""});
      continue;
    }
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    std::vector<Finding> file_findings = LintFile(file, buffer.str());
    findings.insert(findings.end(), file_findings.begin(), file_findings.end());
  }
  return findings;
}

}  // namespace lint
}  // namespace t10
