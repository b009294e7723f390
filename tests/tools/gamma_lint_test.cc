// gamma_lint unit and fixture tests.
//
// The fixture corpus lives in tests/tools/lint_fixtures/ (one seeded
// violation file per rule plus a clean counterpart) and is linted under
// *pseudo-paths*: LintFile only uses the path string for rule scoping,
// so a fixture stored at lint_fixtures/src/sim/wall_clock_bad.cc is
// linted as if it were src/sim/wall_clock_bad.cc. The CLI walk skips
// the fixture directory for exactly this reason.
#include "tools/gamma_lint_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace gammadb::lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFixture(const std::string& relpath) {
  const fs::path path = fs::path(GAMMA_LINT_FIXTURE_DIR) / relpath;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Mirrors the CLI: the registry is built from every fixture file, so
/// the registry sees the same declarations a real run would.
StatusRegistry FixtureRegistry() {
  RegistryBuilder builder;
  for (const auto& entry :
       fs::recursive_directory_iterator(GAMMA_LINT_FIXTURE_DIR)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    builder.Scan(buffer.str());
  }
  return builder.Build();
}

/// (rule, line, col) triples for one fixture, sorted.
std::vector<std::tuple<std::string, int, int>> Lint(
    const std::string& relpath) {
  const StatusRegistry registry = FixtureRegistry();
  std::vector<std::tuple<std::string, int, int>> out;
  for (const Finding& f : LintFile(relpath, ReadFixture(relpath), registry)) {
    EXPECT_EQ(f.file, relpath);
    out.emplace_back(f.rule, f.line, f.col);
  }
  std::sort(out.begin(), out.end());
  return out;
}

using Triples = std::vector<std::tuple<std::string, int, int>>;

// --- Tokenizer ------------------------------------------------------------

TEST(TokenizeTest, SkipsCommentsAndTreatsLiteralsAsOpaque) {
  const auto tokens = Tokenize(
      "int a;  // rand() in a comment\n"
      "/* std::chrono in a block comment */\n"
      "const char* s = \"std::chrono and rand()\";\n");
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
      EXPECT_NE(t.text, "chrono");
    }
  }
  // The string literal survives as a single opaque token.
  const auto is_string = [](const Token& t) {
    return t.kind == TokenKind::kString;
  };
  EXPECT_EQ(std::count_if(tokens.begin(), tokens.end(), is_string), 1);
}

TEST(TokenizeTest, RawStringIsOneToken) {
  const auto tokens = Tokenize("auto s = R\"(rand() \" unbalanced)\";");
  const auto is_string = [](const Token& t) {
    return t.kind == TokenKind::kString;
  };
  EXPECT_EQ(std::count_if(tokens.begin(), tokens.end(), is_string), 1);
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kIdentifier) {
      EXPECT_NE(t.text, "rand");
    }
  }
}

TEST(TokenizeTest, MaximalMunchOperators) {
  const auto tokens = Tokenize("a <<= b ->* c ^= d");
  std::vector<std::string> punct;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kPunct) punct.push_back(t.text);
  }
  EXPECT_EQ(punct, (std::vector<std::string>{"<<=", "->*", "^="}));
}

TEST(TokenizeTest, TracksLineAndColumn) {
  const auto tokens = Tokenize("int a;\n  foo();\n");
  ASSERT_GE(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "int");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[0].col, 1);
  EXPECT_EQ(tokens[3].text, "foo");
  EXPECT_EQ(tokens[3].line, 2);
  EXPECT_EQ(tokens[3].col, 3);
}

// --- Include-guard naming -------------------------------------------------

TEST(ExpectedGuardTest, StripsLeadingSrcAndUppercases) {
  EXPECT_EQ(ExpectedGuard("src/gamma/predicate.h"),
            "GAMMA_GAMMA_PREDICATE_H_");
  EXPECT_EQ(ExpectedGuard("src/common/status.h"), "GAMMA_COMMON_STATUS_H_");
  EXPECT_EQ(ExpectedGuard("bench/common/harness.h"),
            "GAMMA_BENCH_COMMON_HARNESS_H_");
  EXPECT_EQ(ExpectedGuard("tools/gamma_lint_lib.h"),
            "GAMMA_TOOLS_GAMMA_LINT_LIB_H_");
}

// --- Per-rule fixtures: seeded violations at exact positions --------------

TEST(LintFixtureTest, WallClock) {
  EXPECT_EQ(Lint("src/sim/wall_clock_bad.cc"),
            (Triples{{kRuleWallClock, 5, 11},     // #include <chrono>
                     {kRuleWallClock, 8, 17},     // std::chrono
                     {kRuleWallClock, 12, 24}})); // rand()
  EXPECT_EQ(Lint("src/sim/wall_clock_clean.cc"), Triples{});
}

TEST(LintFixtureTest, UnorderedContainer) {
  EXPECT_EQ(Lint("src/join/unordered_bad.cc"),
            (Triples{{kRuleUnordered, 4, 11},    // #include <unordered_map>
                     {kRuleUnordered, 7, 8}}));  // std::unordered_map use
  EXPECT_EQ(Lint("src/join/unordered_clean.cc"), Triples{});
}

TEST(LintFixtureTest, UncategorizedCharge) {
  EXPECT_EQ(Lint("src/gamma/charge_bad.cc"),
            (Triples{{kRuleCharge, 7, 5},    // ChargeCpu(1.0)
                     {kRuleCharge, 8, 5}})); // ChargeDisk(2.0)
  EXPECT_EQ(Lint("src/gamma/charge_clean.cc"), Triples{});
}

TEST(LintFixtureTest, RawSecondsMutation) {
  EXPECT_EQ(Lint("src/join/seconds_bad.cc"),
            (Triples{{kRuleSeconds, 7, 9}}));
  // The identical mutation under src/sim/ is in scope for the owner.
  EXPECT_EQ(Lint("src/sim/seconds_clean.cc"), Triples{});
}

TEST(LintFixtureTest, DiscardedStatus) {
  EXPECT_EQ(Lint("src/storage/status_bad.cc"),
            (Triples{{kRuleStatus, 10, 3},    // (void)MightFail(1)
                     {kRuleStatus, 11, 3}})); // static_cast<void>
  EXPECT_EQ(Lint("src/storage/status_clean.cc"), Triples{});
}

TEST(LintFixtureTest, FatalInLibrary) {
  EXPECT_EQ(Lint("src/join/fatal_bad.cc"),
            (Triples{{kRuleFatal, 9, 3},      // GAMMA_LOG(Fatal)
                     {kRuleFatal, 12, 20}})); // abort()
  EXPECT_EQ(Lint("src/join/fatal_clean.cc"), Triples{});
}

TEST(LintFixtureTest, IncludeGuard) {
  EXPECT_EQ(Lint("src/gamma/guard_bad.h"), (Triples{{kRuleGuard, 4, 1}}));
  EXPECT_EQ(Lint("src/gamma/guard_clean.h"), Triples{});
}

TEST(LintFixtureTest, UsingNamespaceHeader) {
  EXPECT_EQ(Lint("src/gamma/using_bad.h"), (Triples{{kRuleUsing, 8, 1}}));
  EXPECT_EQ(Lint("src/gamma/using_clean.h"), Triples{});
}

// --- Status registry ------------------------------------------------------

TEST(RegistryTest, AnyStatusDeclarationRegistersTheName) {
  RegistryBuilder builder;
  builder.Scan("Status OnlyStatus(int v);\n");
  builder.Scan("Result<std::vector<int>> Fetch(int v);\n");
  builder.Scan("Status Mixed(int v);\n");
  builder.Scan("void Mixed(double v);\n");
  builder.Scan("void NeverStatus(int v);\n");
  const StatusRegistry registry = builder.Build();
  EXPECT_EQ(registry.names.count("OnlyStatus"), 1u);
  EXPECT_EQ(registry.names.count("Fetch"), 1u);
  // A void overload does not hide the name: a (void)-cast of it still
  // looks like a deliberate Status discard.
  EXPECT_EQ(registry.names.count("Mixed"), 1u);
  EXPECT_EQ(registry.names.count("NeverStatus"), 0u);
}

TEST(RegistryTest, FixtureCorpusRegistersMightFail) {
  const StatusRegistry registry = FixtureRegistry();
  EXPECT_EQ(registry.names.count("MightFail"), 1u);
}

// --- Allowlist ------------------------------------------------------------

constexpr const char* kAllowText =
    "# comment\n"
    "[[allow]]\n"
    "rule = \"determinism/wall-clock\"\n"
    "file = \"src/sim/wall_clock_bad.cc\"\n"
    "reason = \"fixture test\"\n";

TEST(AllowlistTest, ParsesEntries) {
  auto parsed = ParseAllowlist(kAllowText);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].rule, "determinism/wall-clock");
  EXPECT_EQ(parsed.value()[0].file, "src/sim/wall_clock_bad.cc");
  EXPECT_TRUE(parsed.value()[0].token.empty());
  EXPECT_EQ(parsed.value()[0].reason, "fixture test");
}

TEST(AllowlistTest, RejectsMissingReason) {
  auto parsed = ParseAllowlist(
      "[[allow]]\nrule = \"x\"\nfile = \"y\"\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(AllowlistTest, RejectsUnknownKey) {
  auto parsed = ParseAllowlist(
      "[[allow]]\nrule = \"x\"\nfile = \"y\"\nreason = \"z\"\nbogus = \"w\"\n");
  EXPECT_FALSE(parsed.ok());
}

TEST(AllowlistTest, FilterDropsMatchedAndFlagsStaleEntries) {
  auto parsed = ParseAllowlist(std::string(kAllowText) +
                               "\n[[allow]]\n"
                               "rule = \"error/fatal-in-library\"\n"
                               "file = \"src/never/matches.cc\"\n"
                               "reason = \"stale\"\n");
  ASSERT_TRUE(parsed.ok());
  const StatusRegistry registry = FixtureRegistry();
  std::vector<Finding> findings = LintFile(
      "src/sim/wall_clock_bad.cc", ReadFixture("src/sim/wall_clock_bad.cc"),
      registry);
  ASSERT_EQ(findings.size(), 3u);
  findings = FilterAllowed(std::move(findings), parsed.value(),
                           ".gamma_lint.allow");
  // The three wall-clock findings are allowlisted away; the stale
  // second entry becomes a finding of its own.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleAllow);
  EXPECT_EQ(findings[0].file, ".gamma_lint.allow");
}

// --- ApplyFixes -----------------------------------------------------------

TEST(ApplyFixesTest, RewritesVoidCastToIgnoreErrorIdempotently) {
  const StatusRegistry registry = FixtureRegistry();
  const std::string original = ReadFixture("src/storage/fix_me.cc");
  const std::string fixed =
      ApplyFixes("src/storage/fix_me.cc", original, registry);
  EXPECT_NE(fixed, original);
  EXPECT_NE(fixed.find("MightFail(1).IgnoreError();"), std::string::npos);
  EXPECT_EQ(fixed.find("(void)MightFail"), std::string::npos);
  // Idempotent: a second pass is a no-op.
  EXPECT_EQ(ApplyFixes("src/storage/fix_me.cc", fixed, registry), fixed);
  // And the fixed text lints clean.
  EXPECT_TRUE(LintFile("src/storage/fix_me.cc", fixed, registry).empty());
}

TEST(ApplyFixesTest, RenamesIncludeGuardIdempotently) {
  const StatusRegistry registry = FixtureRegistry();
  const std::string original = ReadFixture("src/gamma/guard_bad.h");
  const std::string fixed =
      ApplyFixes("src/gamma/guard_bad.h", original, registry);
  EXPECT_NE(fixed.find("GAMMA_GAMMA_GUARD_BAD_H_"), std::string::npos);
  EXPECT_EQ(ApplyFixes("src/gamma/guard_bad.h", fixed, registry), fixed);
  EXPECT_TRUE(LintFile("src/gamma/guard_bad.h", fixed, registry).empty());
}

// --- JSON report ----------------------------------------------------------

TEST(ReportJsonTest, CountsByRule) {
  std::vector<Finding> findings;
  findings.push_back({kRuleWallClock, "a.cc", 1, 2, "t", "m"});
  findings.push_back({kRuleWallClock, "b.cc", 3, 4, "t", "m"});
  findings.push_back({kRuleGuard, "c.h", 5, 6, "t", "m"});
  const JsonValue report = ReportJson(findings, 42);
  const std::string dumped = report.Dump(0);
  EXPECT_NE(dumped.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(dumped.find("\"gamma_lint\""), std::string::npos);
  EXPECT_NE(dumped.find("\"files_scanned\": 42"), std::string::npos);
  EXPECT_NE(dumped.find("\"finding_count\": 3"), std::string::npos);
}

}  // namespace
}  // namespace gammadb::lint
