// Randomized differential join fuzzing (docs/testing.md): seeded plan
// generation over every axis the four algorithms branch on, execution
// against a fresh simulated machine, digest comparison against the
// nested-loop oracle, a byte comparison of the metrics against a
// 1-thread rerun (the determinism contract), and greedy shrinking of
// failures to a minimal ready-to-paste repro line. Library form so both tools/join_fuzz and
// the unit tests drive identical code.
#ifndef GAMMA_TESTING_FUZZ_H_
#define GAMMA_TESTING_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "join/digest.h"
#include "join/spec.h"

namespace gammadb::testing {

/// One fully-specified fuzz plan. Every field is an independent shrink
/// axis; defaults are the "minimal" end of each axis. The simulated
/// machine always has 4 disk nodes (plus 4 diskless ones when `remote`).
struct FuzzConfig {
  /// Seed for tuple/key synthesis (not shrunk: it is the data identity).
  uint64_t data_seed = 1;
  join::Algorithm algorithm = join::Algorithm::kSortMerge;
  /// Executor threads: 1, 4 or 8 (the determinism-contract matrix).
  int threads = 1;
  uint32_t inner_tuples = 0;
  uint32_t outer_tuples = 0;
  /// Join keys are drawn from [0, key_domain); a small domain forces
  /// duplicate-key multiplicity, domain 1 makes every key collide.
  uint32_t key_domain = 1;
  /// Zipf skew of the key draw (0 = uniform; key 0 hottest).
  double zipf_theta = 0.0;
  /// Both scan predicates keep ~sel_pct% of tuples (100 = no predicate).
  int sel_pct = 100;
  /// Join memory as a percentage of the inner relation's bytes, floored
  /// at the driver's validity minimum. 100 = no overflow anywhere;
  /// small values push Simple hash into deep overflow recursion.
  int memory_pct = 100;
  /// Drop JoinSpec::memory_slack to 0 (overflow-onset region).
  bool zero_slack = false;
  /// Hash-decluster both relations on the join attribute with the join
  /// seed (the paper's HPJA configurations); otherwise round-robin.
  bool hpja = false;
  /// Join at 4 diskless processors. Ignored for sort-merge, which the
  /// driver pins to the disk nodes (paper Section 3.1).
  bool remote = false;
  bool bit_filters = false;
  /// Applied only when bit_filters is also set (spec.h contract).
  bool forming_bit_filters = false;
  bool adaptive_repartition = false;
  /// 0 = fault-free; otherwise seeds sim::FaultPlan::Random, exercising
  /// transient I/O errors, packet loss/duplication and crash-restart.
  uint64_t fault_seed = 0;
  /// JoinSpec::max_overflow_levels: recursion depth budget before the
  /// nested-loop fallback engages (docs/overflow.md). Small values (and
  /// 0) deliberately force the fallback.
  int max_levels = 16;
  /// Test hook for the shrinker itself: pretends the engine digest is
  /// wrong whenever bit_filters && inner_tuples >= 2 &&
  /// outer_tuples >= 32, so tests can assert the shrinker converges to
  /// exactly that boundary. Never set by RandomConfig; not a shrink
  /// axis.
  bool inject_mismatch = false;

  /// One-line "key=value ..." form, accepted back by FromReproString
  /// and by tools/join_fuzz --repro.
  std::string ToReproString() const;
  static Result<FuzzConfig> FromReproString(const std::string& line);
};

/// Deterministic config synthesis: same seed, same plan.
FuzzConfig RandomConfig(uint64_t seed);

/// Deterministic config synthesis biased into the deep-overflow regime
/// (tools/join_fuzz --deep-overflow): tiny memory budgets, small skewed
/// key domains, zero slack most of the time, and a recursion-depth axis
/// weighted toward values that force the nested-loop fallback.
FuzzConfig RandomDeepOverflowConfig(uint64_t seed);

/// What the determinism contract (DESIGN.md) keeps byte-identical at
/// every thread count: the serialized RunMetrics JSON, a newline, and
/// the JoinStats fields as one "key=value ..." line.
std::string MetricsRecord(const join::JoinOutput& out);

struct FuzzRunResult {
  join::ResultDigest oracle;
  /// Digest streamed out of the engines via JoinSpec::capture_results.
  join::ResultDigest engine;
  /// Digest recomputed from the stored result relation on disk.
  join::ResultDigest stored;
  /// MetricsRecord of the run at FuzzConfig::threads, and of the same
  /// config rerun on a fresh 1-thread machine (the same run when
  /// threads == 1).
  std::string metrics;
  std::string serial_metrics;
  /// JoinStats spill/refill ledger of the run at FuzzConfig::threads.
  /// Every byte spooled to an overflow file is drained back into a join
  /// exactly once, so a successful join has spill == refill.
  int64_t spill_bytes = 0;
  int64_t refill_bytes = 0;
  bool digests_ok() const { return oracle == engine && oracle == stored; }
  /// Offset of the first byte where `metrics` and `serial_metrics`
  /// differ; std::string::npos when they are equal.
  size_t MetricsDiffAt() const;
  bool ok() const {
    return digests_ok() && metrics == serial_metrics &&
           spill_bytes == refill_bytes;
  }
};

/// Runs one config end to end on a fresh machine + catalog, and once
/// more at 1 thread when FuzzConfig::threads != 1. Non-OK only on
/// infrastructure failure (the generator emits valid plans); a digest
/// or metrics mismatch, or a spill/refill imbalance, is reported
/// through FuzzRunResult::ok().
Result<FuzzRunResult> RunFuzzConfig(const FuzzConfig& config);

/// Reruns given to a failing config whose first rerun passes: a racy,
/// non-deterministic failure may need several runs to show again.
inline constexpr int kFlakyReruns = 5;

struct ShrinkResult {
  FuzzConfig config;
  /// Reruns of the input config before shrinking, and how many failed:
  /// 1 of 1 when the first rerun fails again; otherwise k of
  /// kFlakyReruns, and a flaky failure (k >= 1) is shrunk with "fails
  /// in any of kFlakyReruns reruns" as the predicate.
  int reruns = 0;
  int failed_reruns = 0;
  /// Total runner executions, the reruns included.
  int runs = 0;

  /// Whether any rerun of the input config failed (false = nothing to
  /// shrink; `config` is returned unchanged).
  bool reproduced() const { return failed_reruns > 0; }
  bool flaky() const { return failed_reruns < reruns; }
};

/// Runs one config; RunFuzzConfig unless a test substitutes it.
using FuzzRunner = std::function<Result<FuzzRunResult>(const FuzzConfig&)>;

/// Greedy per-axis minimization: repeatedly tries the smallest ladder
/// value of every axis, accepting any candidate that still fails, until
/// a full pass accepts nothing. Candidates that error out are treated
/// as non-reproducing. The result is locally minimal: shrinking any
/// single axis further makes the failure disappear (for a flaky
/// failure: in none of kFlakyReruns reruns).
ShrinkResult ShrinkFailure(const FuzzConfig& failing,
                           const FuzzRunner& run = RunFuzzConfig);

}  // namespace gammadb::testing

#endif  // GAMMA_TESTING_FUZZ_H_
