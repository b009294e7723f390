// End-to-end correctness of all four parallel join algorithms against a
// single-threaded reference join, across memory ratios, configurations
// (local/remote), bit filters, skew and executor parallelism.
#include <gtest/gtest.h>

#include <tuple>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

struct Case {
  Algorithm algorithm;
  double memory_ratio;
  bool bit_filters;
  bool remote;       // 4 diskless join nodes instead of local
  bool skewed;       // normal-distributed inner join attribute
  int num_threads;   // executor parallelism
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = AlgorithmName(c.algorithm);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  name += "_m" + std::to_string(static_cast<int>(c.memory_ratio * 100));
  if (c.bit_filters) name += "_filter";
  if (c.remote) name += "_remote";
  if (c.skewed) name += "_skew";
  if (c.num_threads > 1) name += "_mt";
  return name;
}

class JoinCorrectnessTest : public ::testing::TestWithParam<Case> {};

TEST_P(JoinCorrectnessTest, MatchesReferenceJoin) {
  const Case& c = GetParam();
  sim::MachineConfig config = testing::SmallConfig(
      /*disk_nodes=*/4, /*diskless_nodes=*/c.remote ? 4 : 0);
  config.num_threads = c.num_threads;
  sim::Machine machine(config);
  db::Catalog catalog;

  wisconsin::DatasetOptions dataset_options;
  dataset_options.outer_cardinality = 4000;
  dataset_options.inner_cardinality = 400;
  dataset_options.seed = 7;
  dataset_options.with_normal_attr = c.skewed;
  if (c.skewed) {
    // Match the paper's skew setup: range-declustered on the join attr.
    dataset_options.strategy = db::PartitionStrategy::kRangeUniform;
    dataset_options.partition_field = wisconsin::fields::kNormal;
    dataset_options.outer_cardinality = 4000;
  }
  auto dataset = wisconsin::LoadJoinABprime(machine, catalog, dataset_options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  JoinSpec spec = testing::NamedSpec("Bprime", "A");
  // Skewed case: NU join (normal inner attribute against outer unique1
  // does not make sense for the sample — instead join normal = normal?
  // NN explodes; use inner normal vs outer unique1: values share the
  // 0..3999 domain only partially — still a valid correctness check).
  spec.inner_field = c.skewed ? wisconsin::fields::kNormal
                              : wisconsin::fields::kUnique1;
  spec.outer_field = wisconsin::fields::kUnique1;
  spec.algorithm = c.algorithm;
  spec.memory_ratio = c.memory_ratio;
  spec.use_bit_filters = c.bit_filters;
  if (c.remote) spec.join_nodes = machine.DisklessNodeIds();

  auto output = ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  // Ground truth.
  auto inner_rel = catalog.Get("Bprime");
  auto outer_rel = catalog.Get("A");
  ASSERT_TRUE(inner_rel.ok() && outer_rel.ok());
  const auto expected = testing::ReferenceJoin(
      (*inner_rel)->PeekAllTuples(), (*inner_rel)->schema(), spec.inner_field,
      (*outer_rel)->PeekAllTuples(), (*outer_rel)->schema(), spec.outer_field);

  auto result_rel = catalog.Get(output->result_relation);
  ASSERT_TRUE(result_rel.ok());
  const auto actual = (*result_rel)->PeekAllTuples();

  EXPECT_EQ(output->stats.result_tuples, expected.size());
  EXPECT_EQ(testing::Canonical(actual), testing::Canonical(expected));
  EXPECT_GT(output->metrics.response_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, JoinCorrectnessTest,
    ::testing::Values(
        // Full memory, local.
        Case{Algorithm::kSortMerge, 1.0, false, false, false, 1},
        Case{Algorithm::kSimpleHash, 1.0, false, false, false, 1},
        Case{Algorithm::kGraceHash, 1.0, false, false, false, 1},
        Case{Algorithm::kHybridHash, 1.0, false, false, false, 1},
        // Constrained memory (buckets / overflow paths).
        Case{Algorithm::kSortMerge, 0.2, false, false, false, 1},
        Case{Algorithm::kSimpleHash, 0.2, false, false, false, 1},
        Case{Algorithm::kGraceHash, 0.2, false, false, false, 1},
        Case{Algorithm::kHybridHash, 0.2, false, false, false, 1},
        // Very scarce memory.
        Case{Algorithm::kSimpleHash, 0.07, false, false, false, 1},
        Case{Algorithm::kGraceHash, 0.07, false, false, false, 1},
        Case{Algorithm::kHybridHash, 0.07, false, false, false, 1},
        Case{Algorithm::kSortMerge, 0.07, false, false, false, 1},
        // Bit filters on.
        Case{Algorithm::kSortMerge, 0.5, true, false, false, 1},
        Case{Algorithm::kSimpleHash, 0.5, true, false, false, 1},
        Case{Algorithm::kGraceHash, 0.5, true, false, false, 1},
        Case{Algorithm::kHybridHash, 0.5, true, false, false, 1},
        // Remote configuration (hash algorithms only).
        Case{Algorithm::kSimpleHash, 0.5, false, true, false, 1},
        Case{Algorithm::kGraceHash, 0.5, false, true, false, 1},
        Case{Algorithm::kHybridHash, 0.5, false, true, false, 1},
        Case{Algorithm::kHybridHash, 0.3, true, true, false, 1},
        // Skewed inner join attribute (overflow with duplicates).
        Case{Algorithm::kSortMerge, 0.3, false, false, true, 1},
        Case{Algorithm::kSimpleHash, 0.3, false, false, true, 1},
        Case{Algorithm::kGraceHash, 0.3, false, false, true, 1},
        Case{Algorithm::kHybridHash, 0.3, false, false, true, 1},
        Case{Algorithm::kHybridHash, 0.3, true, false, true, 1},
        // Multi-threaded executor (order-independent results).
        Case{Algorithm::kSortMerge, 0.4, false, false, false, 4},
        Case{Algorithm::kSimpleHash, 0.4, false, false, false, 4},
        Case{Algorithm::kGraceHash, 0.4, false, false, false, 4},
        Case{Algorithm::kHybridHash, 0.4, true, true, false, 4}),
    CaseName);

}  // namespace
}  // namespace gammadb::join
