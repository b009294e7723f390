#include "tools/gamma_lint_lib.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>

#include "common/strings.h"

namespace gammadb::lint {

namespace {

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool HasSuffix(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool IsHeader(std::string_view path) { return HasSuffix(path, ".h"); }

bool InAnyDir(std::string_view path, std::initializer_list<const char*> dirs) {
  for (const char* d : dirs) {
    if (HasPrefix(path, std::string(d) + "/")) return true;
  }
  return false;
}

// The five directories whose behavior feeds the simulated clock, plus
// the bench drivers and tools that produce/check the gated baselines.
// Host-time escapes here are exactly how baseline drift sneaks in.
bool InWallClockScope(std::string_view path) {
  return InAnyDir(path, {"src/sim", "src/gamma", "src/join", "src/storage",
                         "src/wisconsin", "bench", "tools"});
}

// Iteration order of unordered containers is implementation-defined, so
// any simulated-behavior code iterating one is a portability time bomb
// even if today's libstdc++ happens to be stable. Scoped to the
// deterministic src dirs (bench/tools/tests may use them for host-side
// bookkeeping where order never reaches an output).
bool InUnorderedScope(std::string_view path) {
  return InAnyDir(path, {"src/sim", "src/gamma", "src/join", "src/storage",
                         "src/wisconsin"});
}

// Simulated-seconds accounting may only be mutated by the Charge* API
// inside src/sim; everywhere else the fields are read-only outputs.
bool InSecondsScope(std::string_view path) {
  if (HasPrefix(path, "src/") && !HasPrefix(path, "src/sim/")) return true;
  return InAnyDir(path, {"tools", "bench"});
}

// Library code reports failures through Status; process-killing escapes
// are reserved for the GAMMA_CHECK invariant helpers (common/logging).
bool InFatalScope(std::string_view path) {
  if (!HasPrefix(path, "src/")) return false;
  return path != "src/common/logging.h" && path != "src/common/logging.cc";
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

// ---------------------------------------------------------------------------
// Tokenizer

std::vector<Token> Tokenize(std::string_view src) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = src.size();
  int line = 1;
  int col = 1;

  const auto advance = [&](size_t count) {
    for (size_t k = 0; k < count && i < n; ++k, ++i) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
  };

  const auto push = [&](TokenKind kind, size_t start, int tl, int tc) {
    out.push_back(Token{kind, std::string(src.substr(start, i - start)), tl,
                        tc, start});
  };

  // Consumes a quoted literal starting at src[i] (a ' or "), leaving i
  // one past the closing quote. Handles backslash escapes.
  const auto consume_quoted = [&](char quote) {
    advance(1);  // opening quote
    while (i < n) {
      if (src[i] == '\\' && i + 1 < n) {
        advance(2);
      } else if (src[i] == quote) {
        advance(1);
        break;
      } else {
        advance(1);
      }
    }
  };

  // Consumes a raw string literal starting at the '"' of R"...(.
  const auto consume_raw_string = [&] {
    advance(1);  // opening quote
    size_t delim_start = i;
    while (i < n && src[i] != '(') advance(1);
    const std::string delim(src.substr(delim_start, i - delim_start));
    const std::string close = ")" + delim + "\"";
    const size_t end = src.find(close, i);
    if (end == std::string_view::npos) {
      advance(n - i);  // unterminated: swallow the rest
    } else {
      advance(end + close.size() - i);
    }
  };

  static constexpr std::array<const char*, 4> kOps3 = {"<<=", ">>=", "->*",
                                                       "..."};
  static constexpr std::array<const char*, 20> kOps2 = {
      "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
      "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="};

  while (i < n) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
        c == '\v') {
      advance(1);
      continue;
    }
    if (c == '\\' && i + 1 < n && (src[i + 1] == '\n' || src[i + 1] == '\r')) {
      advance(2);  // line continuation
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      while (i < n && src[i] != '\n') advance(1);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      advance(2);
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) advance(1);
      advance(2);
      continue;
    }
    const size_t start = i;
    const int tl = line;
    const int tc = col;
    if (c == '"') {
      consume_quoted('"');
      push(TokenKind::kString, start, tl, tc);
      continue;
    }
    if (c == '\'') {
      consume_quoted('\'');
      push(TokenKind::kString, start, tl, tc);
      continue;
    }
    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(src[i])) advance(1);
      const std::string_view text = src.substr(start, i - start);
      // String/char literal prefixes: R"(..)", u8"..", L'x', etc.
      if (i < n && (src[i] == '"' || src[i] == '\'')) {
        const bool raw = HasSuffix(text, "R") && src[i] == '"';
        const bool prefix = text == "u8" || text == "u" || text == "U" ||
                            text == "L" || raw;
        if (prefix) {
          if (raw) {
            consume_raw_string();
          } else {
            consume_quoted(src[i]);
          }
          push(TokenKind::kString, start, tl, tc);
          continue;
        }
      }
      push(TokenKind::kIdentifier, start, tl, tc);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      advance(1);
      while (i < n) {
        if ((src[i] == 'e' || src[i] == 'E' || src[i] == 'p' ||
             src[i] == 'P') &&
            i + 1 < n && (src[i + 1] == '+' || src[i + 1] == '-')) {
          advance(2);
        } else if (IsIdentChar(src[i]) || src[i] == '.' || src[i] == '\'') {
          advance(1);
        } else {
          break;
        }
      }
      push(TokenKind::kNumber, start, tl, tc);
      continue;
    }
    // Punctuation, maximal munch.
    size_t len = 1;
    for (const char* op : kOps3) {
      if (src.substr(i, 3) == op) {
        len = 3;
        break;
      }
    }
    if (len == 1) {
      for (const char* op : kOps2) {
        if (src.substr(i, 2) == op) {
          len = 2;
          break;
        }
      }
    }
    advance(len);
    push(TokenKind::kPunct, start, tl, tc);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token-stream helpers

namespace {

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Index one past the matching close paren for the open paren at `open`
/// (tokens[open] must be "("), or tokens.size() if unbalanced.
size_t SkipBalancedParens(const std::vector<Token>& t, size_t open) {
  int depth = 0;
  for (size_t j = open; j < t.size(); ++j) {
    if (IsPunct(t[j], "(")) ++depth;
    if (IsPunct(t[j], ")")) {
      --depth;
      if (depth == 0) return j + 1;
    }
  }
  return t.size();
}

/// Counts depth-1 commas between tokens[open] == "(" and its match.
/// Angle brackets of template arguments are not tracked; a comma inside
/// `foo<a, b>(..)` args would overcount, which for our >= checks only
/// errs toward silence, never a false positive.
int TopLevelCommas(const std::vector<Token>& t, size_t open) {
  int depth = 0;
  int commas = 0;
  for (size_t j = open; j < t.size(); ++j) {
    if (IsPunct(t[j], "(") || IsPunct(t[j], "[") || IsPunct(t[j], "{")) {
      ++depth;
    } else if (IsPunct(t[j], ")") || IsPunct(t[j], "]") ||
               IsPunct(t[j], "}")) {
      --depth;
      if (depth == 0) return commas;
    } else if (depth == 1 && IsPunct(t[j], ",")) {
      ++commas;
    }
  }
  return commas;
}

struct CallChain {
  std::string final_name;  // name of the last call in the chain
  size_t end = 0;  // index of the terminator token (';' or ')')
};

/// Parses a postfix call chain starting at tokens[i] (must be an
/// identifier): `name(args)`, `a.b(x).c(y)`, `ns::f(x)`, ... The chain
/// must end with a call whose ')' is immediately followed by
/// `terminator`. Returns true and fills `out` only for that exact shape
/// — anything fancier (templates, casts, operators) is conservatively
/// not a chain.
bool ParseCallChain(const std::vector<Token>& t, size_t i,
                    std::string_view terminator, CallChain* out) {
  if (i >= t.size() || t[i].kind != TokenKind::kIdentifier) return false;
  std::string name = t[i].text;
  size_t j = i + 1;
  bool last_was_call = false;
  while (j < t.size()) {
    if (IsPunct(t[j], "(")) {
      j = SkipBalancedParens(t, j);
      last_was_call = true;
      continue;
    }
    if ((IsPunct(t[j], ".") || IsPunct(t[j], "->") || IsPunct(t[j], "::")) &&
        j + 1 < t.size() && t[j + 1].kind == TokenKind::kIdentifier) {
      name = t[j + 1].text;
      j += 2;
      last_was_call = false;
      continue;
    }
    break;
  }
  if (!last_was_call || j >= t.size() || !IsPunct(t[j], terminator)) {
    return false;
  }
  out->final_name = std::move(name);
  out->end = j;
  return true;
}

void Add(std::vector<Finding>* out, const char* rule,
         const std::string& file, const Token& at, std::string token,
         std::string message) {
  out->push_back(Finding{rule, file, at.line, at.col, std::move(token),
                         std::move(message)});
}

// ---------------------------------------------------------------------------
// Rule: determinism/wall-clock

void CheckWallClock(const std::string& file, const std::vector<Token>& t,
                    std::vector<Finding>* out) {
  static const std::set<std::string> kStdQualified = {
      "chrono",    "random_device", "mt19937", "mt19937_64",
      "getenv",    "rand",          "srand",   "time",
      "clock",     "system_clock",  "steady_clock"};
  static const std::set<std::string> kBareTypes = {"random_device", "mt19937",
                                                   "mt19937_64"};
  static const std::set<std::string> kBareCalls = {
      "time",  "clock",   "gettimeofday", "clock_gettime",
      "rand",  "srand",   "drand48",      "getenv",
      "secure_getenv"};
  static const std::set<std::string> kBannedIncludes = {"chrono", "random",
                                                        "ctime"};
  for (size_t i = 0; i < t.size(); ++i) {
    // #include <chrono> / <random> / <ctime>
    if (IsPunct(t[i], "#") && i + 3 < t.size() && IsIdent(t[i + 1], "include") &&
        IsPunct(t[i + 2], "<") && t[i + 3].kind == TokenKind::kIdentifier &&
        kBannedIncludes.count(t[i + 3].text) != 0) {
      Add(out, kRuleWallClock, file, t[i + 3], "<" + t[i + 3].text + ">",
          "#include <" + t[i + 3].text +
              "> in deterministic scope: simulated time must be a pure "
              "function of the query plan (docs/static_analysis.md)");
      continue;
    }
    if (t[i].kind != TokenKind::kIdentifier) continue;
    const bool std_qualified = i >= 2 && IsIdent(t[i - 2], "std") &&
                               IsPunct(t[i - 1], "::");
    if (std_qualified && kStdQualified.count(t[i].text) != 0) {
      Add(out, kRuleWallClock, file, t[i], "std::" + t[i].text,
          "std::" + t[i].text +
              " in deterministic scope: host clock/entropy must not reach "
              "simulated behavior");
      continue;
    }
    const bool member_access =
        i >= 1 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->") ||
                   IsPunct(t[i - 1], "::"));
    if (member_access) continue;  // foo.time(), ns::clock(): not the libc call
    if (kBareTypes.count(t[i].text) != 0) {
      Add(out, kRuleWallClock, file, t[i], t[i].text,
          t[i].text + " in deterministic scope: seed an explicit gammadb::Rng "
                      "(common/random.h) instead");
      continue;
    }
    if (i + 1 < t.size() && IsPunct(t[i + 1], "(") &&
        kBareCalls.count(t[i].text) != 0) {
      // Skip declarations/definitions of a same-named function: those
      // have a type identifier immediately before the name. Statement
      // keywords are not type names — `return rand();` is still a call.
      static const std::set<std::string> kStmtKeywords = {
          "return", "co_return", "co_yield", "co_await", "throw",
          "case",   "else",      "do",       "goto"};
      if (i >= 1 && t[i - 1].kind == TokenKind::kIdentifier &&
          kStmtKeywords.count(t[i - 1].text) == 0) {
        continue;
      }
      Add(out, kRuleWallClock, file, t[i], t[i].text + "(",
          "call of " + t[i].text +
              "() in deterministic scope: host clock/entropy must not reach "
              "simulated behavior");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism/unordered-container

void CheckUnordered(const std::string& file, const std::vector<Token>& t,
                    std::vector<Finding>* out) {
  static const std::set<std::string> kBanned = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (const Token& tok : t) {
    if (tok.kind == TokenKind::kIdentifier && kBanned.count(tok.text) != 0) {
      Add(out, kRuleUnordered, file, tok, tok.text,
          "std::" + tok.text +
              " in deterministic scope: iteration order is "
              "implementation-defined; use std::map/std::set or sort before "
              "any order-sensitive effect");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: cost/uncategorized-charge

void CheckCharges(const std::string& file, const std::vector<Token>& t,
                  std::vector<Finding>* out) {
  // name -> minimum top-level commas a well-formed call carries once the
  // CostCategory argument is present.
  static const std::map<std::string, int> kMinCommas = {
      {"ChargeCpu", 1}, {"ChargeDisk", 1}, {"ChargeCpuSplit", 3}};
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    const auto it = kMinCommas.find(t[i].text);
    if (it == kMinCommas.end()) continue;
    if (!IsPunct(t[i + 1], "(")) continue;
    if (TopLevelCommas(t, i + 1) < it->second) {
      Add(out, kRuleCharge, file, t[i], t[i].text,
          t[i].text +
              " call without a sim::CostCategory: every simulated-seconds "
              "charge must name the cost-model primitive it pays for");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: cost/raw-seconds-mutation

void CheckSecondsMutation(const std::string& file, const std::vector<Token>& t,
                          std::vector<Finding>* out) {
  // The accounting fields of NodeUsage / PhaseRecord / RingAttribution /
  // RunMetrics (sim/metrics.h). Cost-model *parameters* (e.g.
  // cpu_read_tuple_seconds) are deliberately not listed: configuring the
  // model is legitimate everywhere; mutating the account is not.
  static const std::set<std::string> kAccountingFields = {
      "cpu_seconds",       "disk_seconds",      "ring_seconds",
      "sched_seconds",     "elapsed_seconds",   "response_seconds",
      "recovery_seconds",  "payload_seconds",   "retransmit_seconds",
      "duplicate_seconds"};
  static const std::set<std::string> kMutatingOps = {"=", "+=", "-=", "*=",
                                                     "/="};
  for (size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier ||
        kAccountingFields.count(t[i].text) == 0) {
      continue;
    }
    if (!IsPunct(t[i - 1], ".") && !IsPunct(t[i - 1], "->")) continue;
    const Token& next = t[i + 1];
    const bool mutated =
        (next.kind == TokenKind::kPunct && kMutatingOps.count(next.text) != 0) ||
        IsPunct(next, "++") || IsPunct(next, "--");
    if (mutated) {
      Add(out, kRuleSeconds, file, t[i], t[i].text,
          "raw mutation of accounting field " + t[i].text +
              " outside src/sim: simulated time may only accrue through the "
              "Charge* API");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: error/fatal-in-library

void CheckFatal(const std::string& file, const std::vector<Token>& t,
                std::vector<Finding>* out) {
  static const std::set<std::string> kFatalCalls = {"abort", "exit", "_Exit",
                                                    "quick_exit", "terminate"};
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    if (t[i].text == "GAMMA_LOG" && i + 2 < t.size() &&
        IsPunct(t[i + 1], "(") && IsIdent(t[i + 2], "Fatal")) {
      Add(out, kRuleFatal, file, t[i], "GAMMA_LOG(Fatal)",
          "direct GAMMA_LOG(Fatal) in library code: broken invariants go "
          "through GAMMA_CHECK*, data-dependent failures through Status");
      continue;
    }
    if (kFatalCalls.count(t[i].text) == 0) continue;
    if (i + 1 >= t.size() || !IsPunct(t[i + 1], "(")) continue;
    const bool member_access =
        i >= 1 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->"));
    if (member_access) continue;
    const bool std_qualified = i >= 2 && IsIdent(t[i - 2], "std") &&
                               IsPunct(t[i - 1], "::");
    if (i >= 1 && IsPunct(t[i - 1], "::") && !std_qualified) continue;
    if (i >= 1 && t[i - 1].kind == TokenKind::kIdentifier) continue;  // decl
    Add(out, kRuleFatal, file, t[i], t[i].text + "(",
        "call of " + t[i].text +
            "() in library code: report failures via Status, assert "
            "invariants via GAMMA_CHECK*");
  }
}

// ---------------------------------------------------------------------------
// Rule: error/discarded-status

void CheckDiscardedStatus(const std::string& file,
                          const std::vector<Token>& t,
                          const StatusRegistry& registry,
                          std::vector<Finding>* out) {
  // (void)chain(...);  and  static_cast<void>(chain(...));
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (IsPunct(t[i], "(") && IsIdent(t[i + 1], "void") &&
        IsPunct(t[i + 2], ")")) {
      CallChain chain;
      if (ParseCallChain(t, i + 3, ";", &chain) &&
          registry.names.count(chain.final_name) != 0) {
        Add(out, kRuleStatus, file, t[i], "(void)" + chain.final_name,
            "(void)-cast discards the Status of " + chain.final_name +
                "(): propagate it, or document the discard with "
                ".IgnoreError()");
      }
      continue;
    }
    if (IsIdent(t[i], "static_cast") && i + 4 < t.size() &&
        IsPunct(t[i + 1], "<") && IsIdent(t[i + 2], "void") &&
        IsPunct(t[i + 3], ">") && IsPunct(t[i + 4], "(")) {
      CallChain chain;
      if (ParseCallChain(t, i + 5, ")", &chain) &&
          registry.names.count(chain.final_name) != 0) {
        Add(out, kRuleStatus, file, t[i],
            "static_cast<void>(" + chain.final_name + ")",
            "static_cast<void> discards the Status of " + chain.final_name +
                "(): propagate it, or document the discard with "
                ".IgnoreError()");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hygiene rules

void CheckUsingNamespace(const std::string& file, const std::vector<Token>& t,
                         std::vector<Finding>* out) {
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (IsIdent(t[i], "using") && IsIdent(t[i + 1], "namespace")) {
      Add(out, kRuleUsing, file, t[i], "using namespace",
          "using-directive in a header leaks the namespace into every "
          "includer");
    }
  }
}

struct GuardInfo {
  int ifndef_line = 0;       // 0: no #ifndef guard found
  std::string ifndef_name;
  int define_line = 0;
  std::string define_name;
  int pragma_once_line = 0;  // 0: no #pragma once
};

/// First-pass scan of preprocessor structure for the guard rule. Only
/// looks at the first #ifndef/#define pair and any #pragma once.
GuardInfo ScanGuard(std::string_view source) {
  GuardInfo info;
  int line = 1;
  size_t pos = 0;
  bool in_block_comment = false;
  while (pos <= source.size()) {
    size_t eol = source.find('\n', pos);
    if (eol == std::string_view::npos) eol = source.size();
    std::string_view raw = source.substr(pos, eol - pos);
    // Strip block comments state (coarse: a guard line never shares a
    // line with a block comment in this codebase).
    if (in_block_comment) {
      if (raw.find("*/") != std::string_view::npos) in_block_comment = false;
    } else {
      std::string_view trimmed = raw;
      while (!trimmed.empty() && (trimmed.front() == ' ' ||
                                  trimmed.front() == '\t')) {
        trimmed.remove_prefix(1);
      }
      if (HasPrefix(trimmed, "/*") &&
          trimmed.find("*/") == std::string_view::npos) {
        in_block_comment = true;
      } else if (HasPrefix(trimmed, "#")) {
        std::string_view directive = trimmed.substr(1);
        while (!directive.empty() && (directive.front() == ' ' ||
                                      directive.front() == '\t')) {
          directive.remove_prefix(1);
        }
        const auto word_after = [&](std::string_view kw) -> std::string {
          std::string_view rest = directive.substr(kw.size());
          while (!rest.empty() &&
                 (rest.front() == ' ' || rest.front() == '\t')) {
            rest.remove_prefix(1);
          }
          size_t len = 0;
          while (len < rest.size() && IsIdentChar(rest[len])) ++len;
          return std::string(rest.substr(0, len));
        };
        if (HasPrefix(directive, "pragma") &&
            directive.find("once") != std::string_view::npos &&
            info.pragma_once_line == 0) {
          info.pragma_once_line = line;
        } else if (HasPrefix(directive, "ifndef") && info.ifndef_line == 0) {
          info.ifndef_line = line;
          info.ifndef_name = word_after("ifndef");
        } else if (HasPrefix(directive, "define") && info.ifndef_line != 0 &&
                   info.define_line == 0) {
          info.define_line = line;
          info.define_name = word_after("define");
        }
      }
    }
    if (eol == source.size()) break;
    pos = eol + 1;
    ++line;
  }
  return info;
}

void CheckIncludeGuard(const std::string& file, std::string_view source,
                       std::vector<Finding>* out) {
  const std::string expected = ExpectedGuard(file);
  const GuardInfo info = ScanGuard(source);
  if (info.pragma_once_line != 0) {
    out->push_back(Finding{kRuleGuard, file, info.pragma_once_line, 1,
                           "#pragma once",
                           "project headers use #ifndef " + expected +
                               " guards, not #pragma once"});
    return;
  }
  if (info.ifndef_line == 0) {
    out->push_back(Finding{kRuleGuard, file, 1, 1, "",
                           "missing include guard: expected #ifndef " +
                               expected});
    return;
  }
  if (info.ifndef_name != expected) {
    out->push_back(Finding{kRuleGuard, file, info.ifndef_line, 1,
                           info.ifndef_name,
                           "include guard " + info.ifndef_name +
                               " does not match the path-derived name " +
                               expected});
    return;
  }
  if (info.define_name != expected) {
    out->push_back(Finding{kRuleGuard, file,
                           info.define_line == 0 ? info.ifndef_line
                                                 : info.define_line,
                           1, info.define_name,
                           "include guard #define does not match #ifndef " +
                               expected});
  }
}

}  // namespace

std::string ExpectedGuard(const std::string& relpath) {
  std::string_view path = relpath;
  if (HasPrefix(path, "src/")) path.remove_prefix(4);
  std::string guard = "GAMMA_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

// ---------------------------------------------------------------------------
// Status-function registry

void RegistryBuilder::Scan(std::string_view source) {
  const std::vector<Token> t = Tokenize(source);
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdentifier) continue;
    // `Status Name(` / `Status Qualified::Name(`
    if (t[i].text == "Status") {
      size_t j = i + 1;
      if (j < t.size() && t[j].kind == TokenKind::kIdentifier) {
        std::string name = t[j].text;
        ++j;
        while (j + 1 < t.size() && IsPunct(t[j], "::") &&
               t[j + 1].kind == TokenKind::kIdentifier) {
          name = t[j + 1].text;
          j += 2;
        }
        if (j < t.size() && IsPunct(t[j], "(")) {
          registry_.names.insert(name);
        }
      }
      continue;
    }
    // `Result<...> Name(`
    if (t[i].text == "Result" && IsPunct(t[i + 1], "<")) {
      int depth = 0;
      size_t j = i + 1;
      for (; j < t.size(); ++j) {
        if (IsPunct(t[j], "<")) ++depth;
        if (IsPunct(t[j], ">")) {
          --depth;
          if (depth == 0) {
            ++j;
            break;
          }
        }
        if (IsPunct(t[j], ">>")) {  // nested template close
          depth -= 2;
          if (depth <= 0) {
            ++j;
            break;
          }
        }
      }
      if (j + 1 < t.size() && t[j].kind == TokenKind::kIdentifier &&
          IsPunct(t[j + 1], "(")) {
        registry_.names.insert(t[j].text);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allowlist

Result<std::vector<AllowEntry>> ParseAllowlist(std::string_view text) {
  std::vector<AllowEntry> entries;
  int line = 0;
  size_t pos = 0;
  bool in_entry = false;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view raw = text.substr(pos, eol - pos);
    ++line;
    std::string_view s = raw;
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
      s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                          s.back() == '\r')) {
      s.remove_suffix(1);
    }
    if (s.empty() || s.front() == '#') {
      // blank / comment
    } else if (s == "[[allow]]") {
      entries.push_back(AllowEntry{});
      entries.back().line = line;
      in_entry = true;
    } else {
      const size_t eq = s.find('=');
      if (!in_entry || eq == std::string_view::npos) {
        return Status::InvalidArgument(StrFormat(
            "allowlist line %d: expected [[allow]] or key = \"value\"", line));
      }
      std::string_view key = s.substr(0, eq);
      std::string_view value = s.substr(eq + 1);
      while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
        key.remove_suffix(1);
      }
      while (!value.empty() &&
             (value.front() == ' ' || value.front() == '\t')) {
        value.remove_prefix(1);
      }
      // Strip a trailing comment outside the quoted value.
      if (value.size() < 2 || value.front() != '"') {
        return Status::InvalidArgument(StrFormat(
            "allowlist line %d: value must be double-quoted", line));
      }
      const size_t close = value.find('"', 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument(StrFormat(
            "allowlist line %d: unterminated string", line));
      }
      const std::string v(value.substr(1, close - 1));
      AllowEntry& entry = entries.back();
      if (key == "rule") {
        entry.rule = v;
      } else if (key == "file") {
        entry.file = v;
      } else if (key == "token") {
        entry.token = v;
      } else if (key == "reason") {
        entry.reason = v;
      } else {
        return Status::InvalidArgument(StrFormat(
            "allowlist line %d: unknown key '%s'", line,
            std::string(key).c_str()));
      }
    }
    if (eol == text.size()) break;
    pos = eol + 1;
  }
  for (const AllowEntry& e : entries) {
    if (e.rule.empty() || e.file.empty()) {
      return Status::InvalidArgument(StrFormat(
          "allowlist entry at line %d: rule and file are required", e.line));
    }
    if (e.reason.empty()) {
      return Status::InvalidArgument(StrFormat(
          "allowlist entry at line %d: a non-empty reason is required "
          "(suppressions must be justified)",
          e.line));
    }
  }
  return entries;
}

// ---------------------------------------------------------------------------
// Entry points

std::vector<Finding> LintFile(const std::string& relpath,
                              std::string_view source,
                              const StatusRegistry& registry) {
  std::vector<Finding> findings;
  const std::vector<Token> tokens = Tokenize(source);
  if (InWallClockScope(relpath)) CheckWallClock(relpath, tokens, &findings);
  if (InUnorderedScope(relpath)) CheckUnordered(relpath, tokens, &findings);
  CheckCharges(relpath, tokens, &findings);
  if (InSecondsScope(relpath)) {
    CheckSecondsMutation(relpath, tokens, &findings);
  }
  if (InFatalScope(relpath)) CheckFatal(relpath, tokens, &findings);
  CheckDiscardedStatus(relpath, tokens, registry, &findings);
  if (IsHeader(relpath)) {
    CheckUsingNamespace(relpath, tokens, &findings);
    CheckIncludeGuard(relpath, source, &findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.col, a.rule) <
                     std::tie(b.file, b.line, b.col, b.rule);
            });
  return findings;
}

std::string ApplyFixes(const std::string& relpath, std::string source,
                       const StatusRegistry& registry) {
  // Fix 1: (void)chain(...);  ->  chain(...).IgnoreError();
  // Edits are applied back-to-front so earlier offsets stay valid.
  {
    const std::vector<Token> t = Tokenize(source);
    struct Edit {
      size_t cast_begin, cast_end;  // byte span of "(void)"
      size_t semi;                  // byte offset of the ';'
    };
    std::vector<Edit> edits;
    for (size_t i = 0; i + 3 < t.size(); ++i) {
      if (!IsPunct(t[i], "(") || !IsIdent(t[i + 1], "void") ||
          !IsPunct(t[i + 2], ")")) {
        continue;
      }
      CallChain chain;
      if (!ParseCallChain(t, i + 3, ";", &chain)) continue;
      if (registry.names.count(chain.final_name) == 0) continue;
      edits.push_back(Edit{t[i].offset,
                           t[i + 2].offset + t[i + 2].text.size(),
                           t[chain.end].offset});
    }
    for (auto it = edits.rbegin(); it != edits.rend(); ++it) {
      source.insert(it->semi, ".IgnoreError()");
      // Also swallow whitespace between the cast and the expression.
      size_t end = it->cast_end;
      while (end < source.size() && (source[end] == ' ' ||
                                     source[end] == '\t')) {
        ++end;
      }
      source.erase(it->cast_begin, end - it->cast_begin);
    }
  }
  // Fix 2: include-guard rename / insertion for headers.
  if (IsHeader(relpath)) {
    const std::string expected = ExpectedGuard(relpath);
    const GuardInfo info = ScanGuard(source);
    const auto replace_on_line = [&](int target_line,
                                     const std::string& from,
                                     const std::string& to) {
      size_t pos = 0;
      int line = 1;
      while (line < target_line && pos < source.size()) {
        pos = source.find('\n', pos);
        if (pos == std::string::npos) return;
        ++pos;
        ++line;
      }
      size_t eol = source.find('\n', pos);
      if (eol == std::string::npos) eol = source.size();
      const size_t at = source.find(from, pos);
      if (at != std::string::npos && at < eol) {
        source.replace(at, from.size(), to);
      }
    };
    const auto fix_trailing_endif = [&](const std::string& old_name) {
      // Rewrite the comment of the last #endif if it names the old guard.
      const size_t endif_pos = source.rfind("#endif");
      if (endif_pos == std::string::npos) return;
      size_t eol = source.find('\n', endif_pos);
      if (eol == std::string::npos) eol = source.size();
      const size_t name_at = source.find(old_name, endif_pos);
      if (name_at != std::string::npos && name_at < eol) {
        source.replace(name_at, old_name.size(), expected);
      }
    };
    if (info.pragma_once_line != 0) {
      replace_on_line(info.pragma_once_line, "#pragma once",
                      "#ifndef " + expected + "\n#define " + expected);
      if (source.empty() || source.back() != '\n') source += '\n';
      source += "#endif  // " + expected + "\n";
    } else if (info.ifndef_line == 0) {
      // No guard at all: wrap the whole file, after any leading comment.
      size_t insert_at = 0;
      size_t pos = 0;
      while (pos < source.size()) {
        size_t eol = source.find('\n', pos);
        if (eol == std::string::npos) eol = source.size();
        std::string_view l(source.data() + pos, eol - pos);
        std::string_view trimmed = l;
        while (!trimmed.empty() && (trimmed.front() == ' ' ||
                                    trimmed.front() == '\t')) {
          trimmed.remove_prefix(1);
        }
        if (!trimmed.empty() && !HasPrefix(trimmed, "//")) break;
        insert_at = eol == source.size() ? eol : eol + 1;
        pos = insert_at;
        if (trimmed.empty()) break;  // first blank after the header comment
      }
      source.insert(insert_at,
                    "#ifndef " + expected + "\n#define " + expected + "\n");
      if (source.empty() || source.back() != '\n') source += '\n';
      source += "#endif  // " + expected + "\n";
    } else if (info.ifndef_name != expected) {
      const std::string old_name = info.ifndef_name;
      replace_on_line(info.ifndef_line, old_name, expected);
      if (info.define_line != 0 && info.define_name == old_name) {
        replace_on_line(info.define_line, old_name, expected);
      }
      fix_trailing_endif(old_name);
    } else if (info.define_line != 0 && info.define_name != expected) {
      replace_on_line(info.define_line, info.define_name, expected);
      fix_trailing_endif(info.define_name);
    }
  }
  return source;
}

std::vector<Finding> FilterAllowed(std::vector<Finding> findings,
                                   const std::vector<AllowEntry>& allowlist,
                                   const std::string& allowlist_path) {
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    bool allowed = false;
    for (const AllowEntry& e : allowlist) {
      if (e.rule == f.rule && e.file == f.file &&
          (e.token.empty() || e.token == f.token)) {
        e.used = true;
        allowed = true;
        break;
      }
    }
    if (!allowed) kept.push_back(std::move(f));
  }
  for (const AllowEntry& e : allowlist) {
    if (!e.used) {
      kept.push_back(Finding{
          kRuleAllow, allowlist_path, e.line, 1, e.rule + ":" + e.file,
          "allowlist entry matched no finding (rule " + e.rule + ", file " +
              e.file + "): remove the stale suppression"});
    }
  }
  return kept;
}

JsonValue ReportJson(const std::vector<Finding>& findings,
                     size_t files_scanned) {
  JsonValue report = JsonValue::MakeObject();
  report.Set("schema_version", static_cast<int64_t>(1));
  report.Set("tool", "gamma_lint");
  report.Set("files_scanned", files_scanned);
  report.Set("finding_count", findings.size());
  std::map<std::string, int64_t> by_rule;
  for (const Finding& f : findings) ++by_rule[f.rule];
  JsonValue rules = JsonValue::MakeObject();
  for (const auto& [rule, count] : by_rule) rules.Set(rule, count);
  report.Set("by_rule", std::move(rules));
  JsonValue list = JsonValue::MakeArray();
  for (const Finding& f : findings) {
    JsonValue item = JsonValue::MakeObject();
    item.Set("rule", f.rule);
    item.Set("file", f.file);
    item.Set("line", static_cast<int64_t>(f.line));
    item.Set("col", static_cast<int64_t>(f.col));
    item.Set("token", f.token);
    item.Set("message", f.message);
    list.Append(std::move(item));
  }
  report.Set("findings", std::move(list));
  return report;
}

}  // namespace gammadb::lint
