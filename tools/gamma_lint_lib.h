// gamma_lint: project-invariant static analysis for the gammadb tree.
//
// The simulator's core contracts are invisible to the compiler: simulated
// time must be a pure function of the query plan (no host clock, host
// entropy or iteration-order dependence inside the deterministic
// directories), every simulated-seconds charge must name a
// sim::CostCategory, and a Status from the fault-injection path must
// never be dropped silently. gamma_lint enforces those rules at lint
// time over a real token stream (comment- and string-literal-aware, not
// a grep), with a plain-text allowlist for the handful of justified
// exceptions. docs/static_analysis.md describes every rule and the
// allowlist format.
//
// The analysis lives in this library (pure string -> findings functions,
// no filesystem access) so tests can drive it against fixture sources
// under arbitrary pseudo-paths; tools/gamma_lint.cc adds the directory
// walk and CLI.
#ifndef GAMMA_TOOLS_GAMMA_LINT_LIB_H_
#define GAMMA_TOOLS_GAMMA_LINT_LIB_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace gammadb::lint {

// ---------------------------------------------------------------------------
// Tokenizer

enum class TokenKind {
  kIdentifier,  // identifiers and keywords
  kNumber,      // numeric literals (int/float/hex, with suffixes)
  kString,      // "..." / R"(...)" / '...' literals (quotes included)
  kPunct,       // operators and punctuation, maximal munch
};

struct Token {
  TokenKind kind;
  std::string text;
  int line = 1;  // 1-based
  int col = 1;   // 1-based, in bytes
  size_t offset = 0;  // byte offset of the first character in the source
};

/// Tokenizes C++ source. Comments and whitespace are skipped (so rules
/// never fire on commented-out code); string/char literals come back as
/// single kString tokens (so rules never fire on literal contents).
std::vector<Token> Tokenize(std::string_view source);

// ---------------------------------------------------------------------------
// Findings and rules

struct Finding {
  std::string rule;     // e.g. "determinism/wall-clock"
  std::string file;     // repo-relative path, forward slashes
  int line = 0;
  int col = 0;
  std::string token;    // the offending token (allowlist match key)
  std::string message;  // human-readable diagnostic
};

/// Names every rule so reports and the allowlist spell them identically.
inline constexpr const char* kRuleWallClock = "determinism/wall-clock";
inline constexpr const char* kRuleUnordered = "determinism/unordered-container";
inline constexpr const char* kRuleCharge = "cost/uncategorized-charge";
inline constexpr const char* kRuleSeconds = "cost/raw-seconds-mutation";
inline constexpr const char* kRuleStatus = "error/discarded-status";
inline constexpr const char* kRuleFatal = "error/fatal-in-library";
inline constexpr const char* kRuleGuard = "hygiene/include-guard";
inline constexpr const char* kRuleUsing = "hygiene/using-namespace-header";
inline constexpr const char* kRuleAllow = "allowlist/unused-entry";

// ---------------------------------------------------------------------------
// Status-function registry

/// Function names known to return Status / Result<T>, collected by
/// scanning declarations across the tree: every name with at least one
/// Status-returning declaration. The `(void)` rule reads it; the cast
/// itself signals intent, so an unrelated void overload of the same
/// name cannot cause a false positive there. Bare dropped calls are
/// left to the compiler: Status and Result are [[nodiscard]], and CI
/// builds with -Werror.
struct StatusRegistry {
  std::set<std::string> names;
};

/// Accumulates declaration scans into a StatusRegistry.
class RegistryBuilder {
 public:
  /// Scans one file's source for function declarations/definitions and
  /// records the names of those returning Status/Result.
  void Scan(std::string_view source);

  StatusRegistry Build() const { return registry_; }

 private:
  StatusRegistry registry_;
};

// ---------------------------------------------------------------------------
// Allowlist

struct AllowEntry {
  std::string rule;
  std::string file;
  std::string token;   // optional: empty matches any token
  std::string reason;  // required, non-empty
  int line = 0;        // line of the [[allow]] header, for diagnostics
  mutable bool used = false;
};

/// Parses the TOML-style allowlist (see docs/static_analysis.md):
///   [[allow]]
///   rule = "determinism/wall-clock"
///   file = "bench/common/harness.cc"
///   token = "std::chrono"        # optional
///   reason = "host real_seconds metric is explicitly host-side"
/// Rejects entries missing rule/file/reason and unknown keys.
Result<std::vector<AllowEntry>> ParseAllowlist(std::string_view text);

// ---------------------------------------------------------------------------
// Analysis entry points

/// Runs every applicable rule over one file. `relpath` controls rule
/// scope (deterministic dirs, library vs. test code, header hygiene);
/// it must be repo-relative with forward slashes.
std::vector<Finding> LintFile(const std::string& relpath,
                              std::string_view source,
                              const StatusRegistry& registry);

/// Applies the mechanical fixes (include-guard rewrite, `(void)` status
/// discard -> .IgnoreError()) and returns the fixed source. Running the
/// result through ApplyFixes again returns it unchanged (idempotent).
std::string ApplyFixes(const std::string& relpath, std::string source,
                       const StatusRegistry& registry);

/// Splits findings into kept (returned) and allowlisted; appends one
/// kRuleAllow finding per entry that matched nothing, so stale entries
/// fail the lint run too. `allowlist_path` names the file in those
/// diagnostics.
std::vector<Finding> FilterAllowed(std::vector<Finding> findings,
                                   const std::vector<AllowEntry>& allowlist,
                                   const std::string& allowlist_path);

/// The include-guard name the project convention expects for `relpath`
/// (leading "src/" stripped, GAMMA_ prefix, _H_-style suffix). Exposed
/// for tests.
std::string ExpectedGuard(const std::string& relpath);

/// Machine-readable report in the repo's schema style (schema_version,
/// tool, files_scanned, by_rule counts, findings array).
JsonValue ReportJson(const std::vector<Finding>& findings,
                     size_t files_scanned);

}  // namespace gammadb::lint

#endif  // GAMMA_TOOLS_GAMMA_LINT_LIB_H_
