#include "rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>

#include "lexer.hpp"

namespace cellspot::lint {

namespace {

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view Basename(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

/// The raw-parse family L001 bans outside util/parse.hpp.
constexpr std::array<std::string_view, 21> kRawParseCalls = {
    "stoi",    "stol",    "stoll",   "stoul",   "stoull",  "stof",  "stod",
    "stold",   "strtol",  "strtoll", "strtoul", "strtoull","strtof","strtod",
    "strtold", "atoi",    "atol",    "atoll",   "atof",    "sscanf","vsscanf",
};

/// Deterministic-output TU predicate for L002: directories whose whole
/// contents feed saved/exported artifacts, plus filename keywords for
/// translation units that live elsewhere but translate data out.
constexpr std::array<std::string_view, 4> kDeterministicDirs = {
    "src/analysis/", "src/evolution/", "src/geo/", "src/snapshot/"};
constexpr std::array<std::string_view, 8> kDeterministicNames = {
    "serde", "serialization", "export", "report",
    "json",  "pipeline",      "aggregation", "validation"};

std::string TrimCopy(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

std::string_view LineAt(std::string_view source, int line) {
  std::size_t pos = 0;
  for (int i = 1; i < line && pos != std::string_view::npos; ++i) {
    pos = source.find('\n', pos);
    if (pos != std::string_view::npos) ++pos;
  }
  if (pos == std::string_view::npos) return {};
  std::size_t end = source.find('\n', pos);
  if (end == std::string_view::npos) end = source.size();
  return source.substr(pos, end - pos);
}

class FileLinter {
 public:
  FileLinter(std::string_view rel_path, std::string_view source)
      : path_(rel_path), source_(source), cls_(Classify(rel_path)) {}

  FileReport Run() {
    lex_ = Lex(source_);
    ParseWaivers();
    if (cls_.check_guard) CheckGuard();
    CheckTokens();
    if (cls_.concurrency) CheckLockDiscipline();
    if (cls_.check_catch) CheckCatchAll();
    ApplyWaivers();
    return std::move(report_);
  }

 private:
  const std::vector<Token>& toks() const { return lex_.tokens; }

  const Token* At(std::size_t i) const {
    return i < toks().size() ? &toks()[i] : nullptr;
  }

  bool IsIdent(const Token* t, std::string_view text) const {
    return t != nullptr && t->kind == TokenKind::kIdentifier && t->text == text;
  }
  bool IsPunct(const Token* t, std::string_view text) const {
    return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
  }

  void Report(std::string rule, const Token& at, std::string message) {
    report_.findings.push_back({std::move(rule), std::string(path_), at.line,
                                at.column, std::move(message),
                                TrimCopy(LineAt(source_, at.line))});
  }

  // -- Waiver pragmas -----------------------------------------------------

  void ParseWaivers() {
    for (const Comment& c : lex_.comments) {
      // A waiver must be the comment's whole business: the marker at the
      // start, then allow(...). Prose that merely mentions the tool (or
      // quotes a pragma inside another comment) is not a waiver attempt.
      constexpr std::string_view kMarker = "cellspot-lint:";
      if (std::string_view(c.text).substr(0, kMarker.size()) != kMarker) continue;
      std::string_view rest = std::string_view(c.text).substr(kMarker.size());
      while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      if (rest.substr(0, 5) != "allow") continue;  // prose about the tool
      bool ok = rest.substr(0, 6) == "allow(";
      std::vector<std::string> rules;
      std::string reason;
      if (ok) {
        const std::size_t close = rest.find(')');
        ok = close != std::string_view::npos;
        if (ok) {
          std::string list(rest.substr(6, close - 6));
          std::istringstream in(list);
          std::string id;
          while (std::getline(in, id, ',')) {
            id = TrimCopy(id);
            const bool well_formed =
                id.size() == 4 && id[0] == 'L' &&
                std::all_of(id.begin() + 1, id.end(), [](char ch) {
                  return std::isdigit(static_cast<unsigned char>(ch)) != 0;
                });
            if (!well_formed) ok = false;
            rules.push_back(id);
          }
          if (rules.empty()) ok = false;
          reason = TrimCopy(rest.substr(close + 1));
        }
      }
      if (!ok || reason.empty()) {
        report_.findings.push_back(
            {"L006", std::string(path_), c.line, 1,
             ok ? "waiver has no reason: every allow() pragma must explain itself"
                : "unparseable waiver: expected 'cellspot-lint: allow(Lnnn[,Lnnn...]) <reason>'",
             TrimCopy(LineAt(source_, c.line))});
        continue;
      }
      const int target = c.standalone ? NextCodeLineAfter(c.line) : c.line;
      for (const std::string& rule : rules) {
        report_.waivers.push_back(
            {rule, std::string(path_), c.line, target, reason, false});
      }
    }
  }

  int NextCodeLineAfter(int line) const {
    for (const Token& t : toks()) {
      if (t.line > line) return t.line;
    }
    return line;
  }

  void ApplyWaivers() {
    std::vector<Finding> kept;
    for (Finding& f : report_.findings) {
      bool waived = false;
      if (f.rule != "L006" && f.rule != "L011") {
        for (Waiver& w : report_.waivers) {
          if (w.rule == f.rule && w.target_line == f.line) {
            w.used = true;
            waived = true;
          }
        }
      }
      if (!waived) kept.push_back(std::move(f));
    }
    report_.findings = std::move(kept);
  }

  // -- L005: guarded headers ---------------------------------------------

  void CheckGuard() {
    // First tokens must spell `# pragma once` or open an `#ifndef` guard.
    const Token* a = At(0);
    const Token* b = At(1);
    const Token* c = At(2);
    if (a == nullptr) return;  // empty header: nothing to protect
    if (IsPunct(a, "#") && IsIdent(b, "pragma") && IsIdent(c, "once")) return;
    if (IsPunct(a, "#") && IsIdent(b, "ifndef")) return;
    Report("L005", *a,
           "header is not guarded: first directive must be #pragma once "
           "(or an #ifndef include guard)");
  }

  // -- Token-stream rules -------------------------------------------------

  void CheckTokens() {
    for (std::size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (cls_.check_parse) CheckRawParse(i);
      if (cls_.deterministic_tu) CheckUnordered(i);
      if (cls_.library_code) {
        CheckNondeterminism(i);
        CheckStdout(i);
      }
      if (cls_.concurrency) CheckRawThreads(i);
    }
  }

  bool CalledHere(std::size_t i) const { return IsPunct(At(i + 1), "("); }

  void CheckRawParse(std::size_t i) {
    const Token& t = toks()[i];
    const bool banned =
        std::find(kRawParseCalls.begin(), kRawParseCalls.end(), t.text) !=
        kRawParseCalls.end();
    if (!banned || !CalledHere(i)) return;
    Report("L001", t,
           "raw numeric parse '" + std::string(t.text) +
               "': route untrusted fields through util::ParseNumber<T> "
               "(util/parse.hpp)");
  }

  void CheckUnordered(std::size_t i) {
    const Token& t = toks()[i];
    if (t.text != "unordered_map" && t.text != "unordered_set") return;
    Report("L002", t,
           "std::" + std::string(t.text) +
               " in a deterministic-output TU: iteration order is a hash "
               "accident — use util::StableMap/StableSet or sorted extraction");
  }

  void CheckNondeterminism(std::size_t i) {
    const Token& t = toks()[i];
    if (t.text == "random_device") {
      Report("L003",
             t, "std::random_device is ambient entropy: fork a seeded util::Rng "
                "instead");
      return;
    }
    if ((t.text == "rand" || t.text == "srand") && CalledHere(i)) {
      Report("L003", t,
             std::string(t.text) + "() is ambient entropy: fork a seeded "
                                   "util::Rng instead");
      return;
    }
    if (t.text == "time" && CalledHere(i) &&
        (IsIdent(At(i + 2), "nullptr") || IsIdent(At(i + 2), "NULL")) &&
        IsPunct(At(i + 3), ")")) {
      Report("L003", t,
             "time(nullptr) reads the wall clock: inject the timestamp instead");
      return;
    }
    // Argless `<clock>::now()` — chrono clocks and anything shaped like
    // them. Member calls (`.now()`/`->now()`) are someone's API, not the
    // ambient clock.
    if (t.text == "now" && i >= 2 && IsPunct(At(i - 1), ":") &&
        IsPunct(At(i - 2), ":") && CalledHere(i) && IsPunct(At(i + 2), ")")) {
      Report("L003", t,
             "argless ::now() reads the ambient clock: inject the clock or "
             "timestamp instead");
    }
  }

  void CheckStdout(std::size_t i) {
    const Token& t = toks()[i];
    if (t.text == "cout") {
      Report("L004", t,
             "std::cout in library code: return data or throw; stdout belongs "
             "to the CLI and obs exporters");
      return;
    }
    if ((t.text == "printf" || t.text == "puts") && CalledHere(i)) {
      Report("L004", t,
             std::string(t.text) + "() in library code: return data or throw; "
                                   "stdout belongs to the CLI and obs exporters");
      return;
    }
    if (t.text == "fprintf" && CalledHere(i) && IsIdent(At(i + 2), "stdout")) {
      Report("L004", t,
             "fprintf(stdout, ...) in library code: return data or throw");
    }
  }

  // -- L008: locks held across parallel / batch seams ---------------------

  /// RAII guard class names whose construction acquires a lock. Seeing
  /// one marks a guard alive until its enclosing brace scope closes —
  /// deliberately coarse (a std::defer_lock guard counts too); the rare
  /// false positive is waivable with the reason spelled out.
  static bool IsGuardName(std::string_view text) {
    return text == "lock_guard" || text == "unique_lock" ||
           text == "scoped_lock" || text == "shared_lock";
  }

  /// Executor fan-out entry points: worker threads run the body, so a
  /// lock held here is one the workers may block on.
  static bool IsExecutorCall(std::string_view text) {
    return text == "ParallelFor" || text == "ParallelForChunks" ||
           text == "ParallelReduce";
  }

  /// Batch lookup seams (FlatLpm / RoutingTable / CellularMap): chunked
  /// under the executor internally, so the same hazard applies.
  static bool IsBatchSeam(std::string_view text) {
    return text == "LookupBatch" || text == "OriginOfBatch" ||
           text == "ContainsBatch";
  }

  void CheckLockDiscipline() {
    struct Guard {
      int depth;
      int line;
      std::string_view name;
    };
    std::vector<Guard> guards;
    int depth = 0;
    for (std::size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "{") ++depth;
        if (t.text == "}") {
          --depth;
          while (!guards.empty() && guards.back().depth > depth) guards.pop_back();
        }
        continue;
      }
      if (t.kind != TokenKind::kIdentifier) continue;
      if (IsGuardName(t.text)) {
        guards.push_back({depth, t.line, t.text});
        continue;
      }
      if (guards.empty() || !CalledHere(i)) continue;
      const bool member_call = IsPunct(At(i - 1), ".") ||
                               (IsPunct(At(i - 1), ">") && IsPunct(At(i - 2), "-"));
      const bool hazard = IsExecutorCall(t.text) || IsBatchSeam(t.text) ||
                          (t.text == "Lookup" && member_call);
      if (!hazard) continue;
      Report("L008", t,
             std::string(t.text) + "() reached while the " +
                 std::string(guards.back().name) + " from line " +
                 std::to_string(guards.back().line) +
                 " is still held: executor workers and batch lookups must "
                 "never run under a caller's mutex — release first");
    }
  }

  // -- L009: raw thread primitives outside src/exec ------------------------

  void CheckRawThreads(std::size_t i) {
    const Token& t = toks()[i];
    const bool std_qualified = i >= 3 && IsPunct(At(i - 1), ":") &&
                               IsPunct(At(i - 2), ":") && IsIdent(At(i - 3), "std");
    if ((t.text == "thread" || t.text == "jthread") && std_qualified) {
      // std::thread::hardware_concurrency() reads a property, it does
      // not spawn; anything else names the type to construct one.
      if (IsPunct(At(i + 1), ":") && IsPunct(At(i + 2), ":")) return;
      Report("L009", t,
             "std::" + std::string(t.text) +
                 " outside src/exec: all library parallelism goes through "
                 "exec::Executor (thread counts, determinism, shutdown)");
      return;
    }
    if (t.text == "async" && std_qualified && CalledHere(i)) {
      Report("L009", t,
             "std::async outside src/exec: all library parallelism goes "
             "through exec::Executor");
      return;
    }
    if (t.text == "detach" && CalledHere(i) && IsPunct(At(i + 2), ")") &&
        (IsPunct(At(i - 1), ".") ||
         (IsPunct(At(i - 1), ">") && IsPunct(At(i - 2), "-")))) {
      Report("L009", t,
             "detach() orphans a thread no shutdown path can join: keep "
             "ownership and join, or route through exec::Executor");
    }
  }

  // -- L010: swallowed catch (...) -----------------------------------------

  /// Identifiers whose presence in a catch-all body counts as reporting
  /// the failure instead of swallowing it.
  static bool IsReportingIdent(std::string_view text) {
    return text == "throw" || text == "fprintf" || text == "cerr" ||
           text == "stderr" || text == "abort" || text == "terminate" ||
           text == "counter" || text == "Increment" || text == "Report" ||
           text == "report";
  }

  void CheckCatchAll() {
    for (std::size_t i = 0; i < toks().size(); ++i) {
      if (!IsIdent(At(i), "catch")) continue;
      // Shape: catch ( . . . ) {
      if (!IsPunct(At(i + 1), "(") || !IsPunct(At(i + 2), ".") ||
          !IsPunct(At(i + 3), ".") || !IsPunct(At(i + 4), ".") ||
          !IsPunct(At(i + 5), ")") || !IsPunct(At(i + 6), "{")) {
        continue;
      }
      int depth = 1;
      bool reports = false;
      std::size_t j = i + 7;
      for (; j < toks().size() && depth > 0; ++j) {
        const Token& b = toks()[j];
        if (b.kind == TokenKind::kPunct) {
          if (b.text == "{") ++depth;
          if (b.text == "}") --depth;
        } else if (b.kind == TokenKind::kIdentifier && IsReportingIdent(b.text)) {
          reports = true;
        }
      }
      if (!reports) {
        Report("L010", toks()[i],
               "catch (...) neither rethrows nor reports: swallowed failures "
               "turn corrupt input into silent wrong answers — rethrow, write "
               "to stderr, or count it in obs");
      }
    }
  }

  std::string_view path_;
  std::string_view source_;
  FileClass cls_;
  LexResult lex_;
  FileReport report_;
};

}  // namespace

FileClass Classify(std::string_view rel_path) {
  FileClass cls;
  cls.header = EndsWith(rel_path, ".hpp") || EndsWith(rel_path, ".h");
  cls.check_guard = cls.header;

  // L001 applies everywhere except the checked-parse home itself.
  cls.check_parse = !EndsWith(rel_path, "util/parse.hpp");

  // L003/L004 police library code: everything under src/ except src/obs/
  // (whose entire purpose is wall-clock telemetry and export streams).
  const bool in_src = rel_path.substr(0, 4) == "src/";
  cls.library_code = in_src && !Contains(rel_path, "src/obs/");

  // L008/L009 police everything under src/ except the executor itself —
  // the one place allowed to own threads and lock around its own
  // machinery. L010 covers all of src/ (obs included: telemetry may
  // read clocks, but it may not swallow failures).
  cls.concurrency = in_src && !Contains(rel_path, "src/exec/");
  cls.check_catch = in_src;

  // L002: deterministic-output TUs under src/.
  if (in_src) {
    for (const std::string_view dir : kDeterministicDirs) {
      if (Contains(rel_path, dir)) cls.deterministic_tu = true;
    }
    const std::string_view base = Basename(rel_path);
    for (const std::string_view name : kDeterministicNames) {
      if (Contains(base, name)) cls.deterministic_tu = true;
    }
  }
  return cls;
}

FileReport LintFile(std::string_view rel_path, std::string_view source) {
  return FileLinter(rel_path, source).Run();
}

}  // namespace cellspot::lint
