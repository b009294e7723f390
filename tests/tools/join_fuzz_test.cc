// Tests for the differential fuzzer library behind tools/join_fuzz:
// generator determinism, repro-line round-trips, shrinker convergence on
// a synthetically injected mismatch, and regression configs the fuzzer
// found in real engine code.
#include <gtest/gtest.h>

#include <string>

#include "testing/fuzz.h"

namespace gammadb::testing {
namespace {

TEST(FuzzConfig, ReproLineRoundTrips) {
  FuzzConfig config;
  config.data_seed = 780923712;
  config.algorithm = join::Algorithm::kSimpleHash;
  config.threads = 4;
  config.inner_tuples = 250;
  config.outer_tuples = 4;
  config.key_domain = 5;
  config.zipf_theta = 1.0;
  config.sel_pct = 60;
  config.memory_pct = 35;
  config.zero_slack = true;
  config.hpja = true;
  config.remote = true;
  config.bit_filters = true;
  config.forming_bit_filters = true;
  config.adaptive_repartition = true;
  config.fault_seed = 17;
  config.inject_mismatch = true;

  const std::string line = config.ToReproString();
  const Result<FuzzConfig> parsed = FuzzConfig::FromReproString(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToReproString(), line);
}

TEST(FuzzConfig, RejectsMalformedReproLines) {
  EXPECT_FALSE(FuzzConfig::FromReproString("").ok());
  EXPECT_FALSE(FuzzConfig::FromReproString("not a repro line").ok());
  EXPECT_FALSE(FuzzConfig::FromReproString("algo=quantum threads=1").ok());
  EXPECT_FALSE(FuzzConfig::FromReproString("algo=sort-merge threads=zero").ok());
}

TEST(RandomConfig, DeterministicPerSeed) {
  for (uint64_t seed : {1ULL, 42ULL, 20260808ULL}) {
    EXPECT_EQ(RandomConfig(seed).ToReproString(),
              RandomConfig(seed).ToReproString())
        << "seed " << seed;
  }
  EXPECT_NE(RandomConfig(1).ToReproString(), RandomConfig(2).ToReproString());
}

TEST(RandomConfig, SeededBatchMatchesOracle) {
  // A fast in-process slice of what tools/join_fuzz runs at scale (the
  // join_fuzz_smoke ctest covers a bigger batch through the binary).
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const FuzzConfig config = RandomConfig(seed);
    const Result<FuzzRunResult> run = RunFuzzConfig(config);
    ASSERT_TRUE(run.ok()) << config.ToReproString() << "\n  "
                          << run.status().ToString();
    EXPECT_TRUE(run->ok()) << config.ToReproString() << "\n  engine "
                           << run->engine.ToString() << "\n  oracle "
                           << run->oracle.ToString();
  }
}

TEST(RunFuzzConfig, ThreadedMetricsMatchOneThreadRerun) {
  // An overflow-heavy config at 4 threads on diskless join processors:
  // every spill and refill crosses the network, and the metrics record
  // (the spill/refill ledger included) must equal the 1-thread rerun
  // byte for byte.
  FuzzConfig config;
  config.data_seed = 11;
  config.algorithm = join::Algorithm::kHybridHash;
  config.threads = 4;
  config.inner_tuples = 600;
  config.outer_tuples = 1000;
  config.key_domain = 100;
  config.memory_pct = 15;
  config.zero_slack = true;
  config.remote = true;
  const Result<FuzzRunResult> run = RunFuzzConfig(config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->ok()) << config.ToReproString();
  EXPECT_EQ(run->metrics, run->serial_metrics);
  EXPECT_NE(run->metrics.find("\"response_seconds\""), std::string::npos);
  // The config reaches the spill ledger the comparison is there to check.
  EXPECT_EQ(run->metrics.find(" spill=0 "), std::string::npos)
      << run->metrics;
  EXPECT_GT(run->spill_bytes, 0);
  EXPECT_EQ(run->spill_bytes, run->refill_bytes);
}

TEST(FuzzRunResult, MetricsMismatchFailsWithMatchingDigests) {
  FuzzRunResult run;
  run.metrics = "{}\nspill=1";
  run.serial_metrics = "{}\nspill=2";
  EXPECT_TRUE(run.digests_ok());
  EXPECT_FALSE(run.ok());
  run.serial_metrics = run.metrics;
  EXPECT_TRUE(run.ok());
}

TEST(FuzzRunResult, SpillRefillImbalanceFailsWithMatchingDigestsAndMetrics) {
  FuzzRunResult run;
  run.metrics = "{}\nspill=8192 refill=8192";
  run.serial_metrics = run.metrics;
  run.spill_bytes = 8192;
  run.refill_bytes = 8192 - 208;
  EXPECT_TRUE(run.digests_ok());
  EXPECT_EQ(run.metrics, run.serial_metrics);
  EXPECT_FALSE(run.ok());
  run.refill_bytes = run.spill_bytes;
  EXPECT_TRUE(run.ok());
}

TEST(ShrinkFailure, ConvergesToMinimalInjectedMismatch) {
  // The injected-mismatch hook only fires for bit_filters && inner>=2 &&
  // outer>=32, so a correct greedy shrinker must land exactly on that
  // boundary with every other axis at its minimum.
  FuzzConfig failing;
  failing.data_seed = 7;
  failing.algorithm = join::Algorithm::kHybridHash;
  failing.threads = 8;
  failing.inner_tuples = 40;
  failing.outer_tuples = 400;
  failing.key_domain = 10;
  failing.zipf_theta = 0.5;
  failing.memory_pct = 35;
  failing.hpja = true;
  failing.bit_filters = true;
  failing.adaptive_repartition = true;
  failing.inject_mismatch = true;

  const Result<FuzzRunResult> original = RunFuzzConfig(failing);
  ASSERT_TRUE(original.ok());
  ASSERT_FALSE(original->ok()) << "injected mismatch did not fire";

  const ShrinkResult shrunk = ShrinkFailure(failing);
  ASSERT_TRUE(shrunk.reproduced());
  EXPECT_GT(shrunk.runs, 0);
  const FuzzConfig& m = shrunk.config;
  EXPECT_EQ(m.inner_tuples, 2u);
  EXPECT_EQ(m.outer_tuples, 32u);
  EXPECT_TRUE(m.bit_filters);
  EXPECT_EQ(m.algorithm, join::Algorithm::kSortMerge);
  EXPECT_EQ(m.threads, 1);
  EXPECT_EQ(m.key_domain, 1u);
  EXPECT_EQ(m.zipf_theta, 0.0);
  EXPECT_EQ(m.memory_pct, 100);
  EXPECT_FALSE(m.hpja);
  EXPECT_FALSE(m.adaptive_repartition);

  // The shrunk config still fails, and its repro line round-trips to a
  // config that fails the same way.
  const Result<FuzzConfig> reparsed =
      FuzzConfig::FromReproString(m.ToReproString());
  ASSERT_TRUE(reparsed.ok());
  const Result<FuzzRunResult> rerun = RunFuzzConfig(*reparsed);
  ASSERT_TRUE(rerun.ok());
  EXPECT_FALSE(rerun->ok());
}

/// A runner that fails like a race: only when the config satisfies the
/// injected-mismatch boundary, and then only on every third call
/// overall, so a failure never shows on two calls in a row. No join is
/// run; a failing result differs from its 1-thread rerun at byte 3.
FuzzRunner FlakyRunner(int* calls, bool ever_fails) {
  return [calls, ever_fails](const FuzzConfig& c) -> Result<FuzzRunResult> {
    ++*calls;
    FuzzRunResult run;
    run.metrics = "{}\nspill=0";
    run.serial_metrics = run.metrics;
    if (ever_fails && *calls % 3 == 0 && c.bit_filters &&
        c.inner_tuples >= 2 && c.outer_tuples >= 32) {
      run.metrics[3] = 'X';
    }
    return run;
  };
}

FuzzConfig FlakyFailingConfig() {
  FuzzConfig failing;
  failing.algorithm = join::Algorithm::kHybridHash;
  failing.threads = 4;
  failing.inner_tuples = 40;
  failing.outer_tuples = 400;
  failing.key_domain = 10;
  failing.bit_filters = true;
  return failing;
}

TEST(ShrinkFailure, FlakyFailureIsRerunAndShrunkOnAnyOfItsReruns) {
  int calls = 0;
  const ShrinkResult shrunk =
      ShrinkFailure(FlakyFailingConfig(), FlakyRunner(&calls, true));
  // Calls 1..5 are the reruns; call 3 fails.
  EXPECT_EQ(shrunk.reruns, kFlakyReruns);
  EXPECT_EQ(shrunk.failed_reruns, 1);
  EXPECT_TRUE(shrunk.flaky());
  ASSERT_TRUE(shrunk.reproduced());
  EXPECT_EQ(shrunk.runs, calls);
  // Any kFlakyReruns consecutive calls include a failing one, so the
  // "fails in any rerun" predicate is exact and the shrinker lands on
  // the boundary, as it does for a deterministic failure.
  const FuzzConfig& m = shrunk.config;
  EXPECT_EQ(m.inner_tuples, 2u);
  EXPECT_EQ(m.outer_tuples, 32u);
  EXPECT_TRUE(m.bit_filters);
  EXPECT_EQ(m.key_domain, 1u);
  EXPECT_EQ(m.threads, 1);
  EXPECT_EQ(m.algorithm, join::Algorithm::kSortMerge);
}

TEST(ShrinkFailure, FailureThatNeverReproducesIsReportedUnshrunk) {
  int calls = 0;
  const FuzzConfig failing = FlakyFailingConfig();
  const ShrinkResult shrunk =
      ShrinkFailure(failing, FlakyRunner(&calls, false));
  EXPECT_FALSE(shrunk.reproduced());
  EXPECT_EQ(shrunk.reruns, kFlakyReruns);
  EXPECT_EQ(shrunk.failed_reruns, 0);
  EXPECT_EQ(shrunk.runs, kFlakyReruns);
  EXPECT_EQ(calls, kFlakyReruns);
  EXPECT_EQ(shrunk.config.ToReproString(), failing.ToReproString());
}

TEST(FuzzRunResult, MetricsDiffAtNamesTheFirstDifferingByte) {
  FuzzRunResult run;
  run.metrics = "{}\nspill=8192";
  run.serial_metrics = run.metrics;
  EXPECT_EQ(run.MetricsDiffAt(), std::string::npos);
  run.serial_metrics = "{}\nspill=8000";
  EXPECT_EQ(run.MetricsDiffAt(), 10u);
  run.serial_metrics = "{}\nspill=81";
  EXPECT_EQ(run.MetricsDiffAt(), 11u);
}

TEST(RegressionConfigs, RebalanceCapacityOverflow) {
  // Found by the fuzzer (batch seed 42, config seed 92): the rebalance
  // planner freed every heavy bin's resident bytes up front, so a heavy
  // bin that later found no destination returned to a process whose
  // space had already been promised to migrated bins, overflowing the
  // hash table mid-migration.
  const Result<FuzzConfig> config = FuzzConfig::FromReproString(
      "algo=simple-hash threads=4 inner=250 outer=4 domain=5 theta=1.000 "
      "sel=100 mem=100 slack0=0 hpja=0 remote=1 bf=0 fbf=0 adapt=1 faults=0 "
      "data=780923712 inject=0");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  const Result<FuzzRunResult> run = RunFuzzConfig(*config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->ok()) << "engine " << run->engine.ToString() << "\n  oracle "
                         << run->oracle.ToString();
}

}  // namespace
}  // namespace gammadb::testing
