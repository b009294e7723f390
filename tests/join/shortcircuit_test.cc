// Network short-circuiting invariants (paper Sections 4.1 and 4.3 and
// Appendix A): who crosses the ring under which declustering, join
// attribute and node placement.
#include <gtest/gtest.h>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

class ShortCircuitTest : public ::testing::Test {
 protected:
  void Load(bool remote_machine) {
    machine_ = std::make_unique<sim::Machine>(
        testing::SmallConfig(8, remote_machine ? 8 : 0));
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 8000;
    options.inner_cardinality = 800;
    options.seed = 13;
    auto loaded = wisconsin::LoadJoinABprime(*machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  JoinOutput MustJoin(Algorithm algorithm, bool hpja, double ratio,
                      bool remote_join) {
    JoinSpec spec = testing::NamedSpec("Bprime", "A");
    const int field = hpja ? wisconsin::fields::kUnique1
                           : wisconsin::fields::kUnique2;
    spec.inner_field = field;
    spec.outer_field = field;
    spec.algorithm = algorithm;
    spec.memory_ratio = ratio;
    if (remote_join) spec.join_nodes = machine_->DisklessNodeIds();
    spec.result_name = "result";
    auto output = ExecuteJoin(*machine_, catalog_, spec);
    GAMMA_CHECK(output.ok()) << output.status().ToString();
    GAMMA_CHECK_OK(catalog_.Drop("result"));
    return std::move(output).value();
  }

  std::unique_ptr<sim::Machine> machine_;
  db::Catalog catalog_;
};

// Local HPJA joins short-circuit EVERYTHING: bucket-forming, joining,
// and (1/8th aside) even the result store traffic never leaves a node's
// own neighbourhood... result tuples go round-robin, so they do cross.
// The partition/build/probe traffic itself must be 100% local.
TEST_F(ShortCircuitTest, LocalHpjaHashJoinsShortCircuitJoinTraffic) {
  Load(/*remote_machine=*/false);
  for (Algorithm algorithm : {Algorithm::kGraceHash, Algorithm::kHybridHash,
                              Algorithm::kSortMerge}) {
    const auto output = MustJoin(algorithm, /*hpja=*/true, 0.5,
                                 /*remote_join=*/false);
    const auto& c = output.metrics.counters;
    // Only result tuples (800, routed round-robin: 7/8 remote) cross.
    EXPECT_LE(c.tuples_sent_remote, 800) << AlgorithmName(algorithm);
    EXPECT_GT(c.tuples_sent_local, 8000) << AlgorithmName(algorithm);
  }
}

TEST_F(ShortCircuitTest, LocalNonHpjaShortCircuitsOneEighth) {
  Load(false);
  const auto output =
      MustJoin(Algorithm::kGraceHash, /*hpja=*/false, 0.5, false);
  const auto& c = output.metrics.counters;
  // Bucket-forming spreads randomly (1/8 local); bucket-JOINING still
  // fully short-circuits (the Section 4.1 Grace argument), so the
  // overall local fraction is well above 1/8 but well below 1.
  const double local = c.ShortCircuitFraction();
  EXPECT_GT(local, 0.35);
  EXPECT_LT(local, 0.75);
}

TEST_F(ShortCircuitTest, GraceNonHpjaBucketJoinIsFullyLocal) {
  Load(false);
  // With one bucket the partition phase is the only non-local traffic:
  // 8800 tuples spread 1/8 local, the bucket join re-routes all 8800
  // locally, results 800 mostly remote.
  const auto output = MustJoin(Algorithm::kGraceHash, false, 1.0, false);
  const auto& c = output.metrics.counters;
  const int64_t expected_remote_partition = 8800 * 7 / 8;
  EXPECT_NEAR(static_cast<double>(c.tuples_sent_remote),
              static_cast<double>(expected_remote_partition + 800 * 7 / 8),
              150.0);
  // The bucket-join re-route (8800 tuples) must be local.
  EXPECT_GT(c.tuples_sent_local, 8800);
}

TEST_F(ShortCircuitTest, RemoteJoinNodesGetNoShortCircuitOnProbes) {
  Load(/*remote_machine=*/true);
  const auto output = MustJoin(Algorithm::kHybridHash, /*hpja=*/true, 1.0,
                               /*remote_join=*/true);
  const auto& c = output.metrics.counters;
  // One bucket: every tuple ships to a diskless joiner; results ship
  // back. Nothing can short-circuit.
  EXPECT_EQ(c.tuples_sent_local, 0);
  EXPECT_GE(c.tuples_sent_remote, 8800 + 800);
}

TEST_F(ShortCircuitTest, RemoteHpjaHybridWritesBucketsLocally) {
  Load(true);
  const auto two_buckets = MustJoin(Algorithm::kHybridHash, true, 0.5, true);
  // Half of both relations (bucket 1) is written to LOCAL disk; the
  // other half plus the bucket-join re-route plus results go remote.
  const auto& c = two_buckets.metrics.counters;
  EXPECT_NEAR(static_cast<double>(c.tuples_sent_local), 4400.0, 200.0);
}

TEST_F(ShortCircuitTest, RemoteNonHpjaHybridWritesBucketsRandomly) {
  Load(true);
  const auto output = MustJoin(Algorithm::kHybridHash, false, 0.5, true);
  const auto& c = output.metrics.counters;
  // Stored-bucket writes (4400 tuples) land on a random disk: 1/8 local.
  EXPECT_NEAR(static_cast<double>(c.tuples_sent_local), 4400.0 / 8, 120.0);
}

TEST_F(ShortCircuitTest, HpjaIsFasterThanNonHpjaLocally) {
  Load(false);
  for (Algorithm algorithm :
       {Algorithm::kSortMerge, Algorithm::kSimpleHash, Algorithm::kGraceHash,
        Algorithm::kHybridHash}) {
    const auto hpja = MustJoin(algorithm, true, 0.5, false);
    const auto non = MustJoin(algorithm, false, 0.5, false);
    EXPECT_LT(hpja.metrics.response_seconds, non.metrics.response_seconds)
        << AlgorithmName(algorithm);
    EXPECT_EQ(hpja.stats.result_tuples, non.stats.result_tuples);
  }
}

}  // namespace
}  // namespace gammadb::join
