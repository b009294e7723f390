#include "gamma/planner.h"

#include <gtest/gtest.h>

#include "gamma/loader.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::db {
namespace {

namespace wf = wisconsin::fields;

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest() : machine_(gammadb::testing::SmallConfig(4)) {
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 2000;
    options.inner_cardinality = 200;
    options.seed = 17;
    auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  sim::Machine machine_;
  db::Catalog catalog_;
};

TEST_F(PlannerTest, AnalyzeColumnComputesExactStats) {
  auto rel = catalog_.Get("A");
  ASSERT_TRUE(rel.ok());
  auto unique = AnalyzeColumn(**rel, wf::kUnique1);
  ASSERT_TRUE(unique.ok());
  EXPECT_EQ(unique->cardinality, 2000u);
  EXPECT_EQ(unique->distinct, 2000u);
  EXPECT_EQ(unique->max_duplicates, 1u);
  EXPECT_EQ(unique->min_value, 0);
  EXPECT_EQ(unique->max_value, 1999);
  EXPECT_FALSE(unique->HighlySkewed());

  auto ten = AnalyzeColumn(**rel, wf::kTen);
  ASSERT_TRUE(ten.ok());
  EXPECT_EQ(ten->distinct, 10u);
  EXPECT_EQ(ten->max_duplicates, 200u);
  // Uniform duplicates: heavy but not skewed (max == average).
  EXPECT_FALSE(ten->HighlySkewed());

  EXPECT_FALSE(AnalyzeColumn(**rel, 99).ok());
  EXPECT_FALSE(AnalyzeColumn(**rel, wf::kStringU1).ok());
}

TEST_F(PlannerTest, ChooserFollowsSectionFiveRule) {
  ColumnStats uniform;
  uniform.cardinality = 10000;
  uniform.distinct = 10000;
  uniform.max_duplicates = 1;
  ColumnStats skewed;
  skewed.cardinality = 10000;
  skewed.distinct = 3000;       // avg 3.3 duplicates...
  skewed.max_duplicates = 77;   // ...max 77: the paper's NU column
  EXPECT_TRUE(skewed.HighlySkewed());

  // Uniform inner: Hybrid at any memory.
  EXPECT_EQ(ChooseJoinAlgorithm(uniform, 1.0),
            join::Algorithm::kHybridHash);
  EXPECT_EQ(ChooseJoinAlgorithm(uniform, 0.1),
            join::Algorithm::kHybridHash);
  // Skewed inner with plenty of memory: still Hybrid ("we find it very
  // encouraging that Hybrid still performs best...").
  EXPECT_EQ(ChooseJoinAlgorithm(skewed, 1.0), join::Algorithm::kHybridHash);
  // Skewed inner and limited memory on the paper's ORIGINAL executor
  // (no adaptive repartitioning, overflow failures fatal): sort-merge
  // (Section 5).
  EXPECT_EQ(ChooseJoinAlgorithm(skewed, 0.17,
                                /*adaptive_repartition_available=*/false,
                                /*robust_overflow_available=*/false),
            join::Algorithm::kSortMerge);
  // This executor's overflow resolution is total (bounded recursion +
  // nested-loop degrade, docs/overflow.md), so by default the
  // conservative fallback is retired even without rebalancing.
  EXPECT_EQ(ChooseJoinAlgorithm(skewed, 0.17), join::Algorithm::kHybridHash);

  // Run-time rebalancing alone (docs/skew.md) retires it too: adaptive
  // Hybrid absorbs the skew inside each bucket's sub-join.
  EXPECT_EQ(ChooseJoinAlgorithm(skewed, 0.17,
                                /*adaptive_repartition_available=*/true,
                                /*robust_overflow_available=*/false),
            join::Algorithm::kHybridHash);
  EXPECT_EQ(ChooseJoinAlgorithm(uniform, 0.17,
                                /*adaptive_repartition_available=*/true),
            join::Algorithm::kHybridHash);
}

TEST_F(PlannerTest, PlannerKeepsHybridForSkewedLowMemoryJoin) {
  // Build a skewed inner relation and let the rule choose. The
  // sort-merge skew fallback is retired (docs/overflow.md): the
  // overflow path is total, so the rule stays with Hybrid and the join
  // must still complete correctly.
  wisconsin::GenOptions gen;
  gen.cardinality = 2000;
  gen.seed = 18;
  gen.with_normal_attr = true;
  gen.normal_mean = 1000;
  gen.normal_stddev = 30;
  gen.normal_max = 1999;
  auto rel = catalog_.Create(machine_, "Skewed", wisconsin::WisconsinSchema());
  ASSERT_TRUE(rel.ok());
  LoadOptions load;
  load.strategy = PartitionStrategy::kRangeUniform;
  load.partition_field = wf::kNormal;
  ASSERT_TRUE(LoadRelation(*rel, wisconsin::Generate(gen), load).ok());

  auto stats = AnalyzeColumn(**rel, wf::kNormal);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->HighlySkewed());

  join::JoinSpec spec;
  spec.inner_relation = std::string("Skewed");
  spec.outer_relation = std::string("A");
  spec.inner_field = wf::kNormal;
  spec.outer_field = wf::kUnique1;
  spec.memory_ratio = 0.15;
  spec.algorithm = ChooseJoinAlgorithm(*stats, spec.memory_ratio);
  EXPECT_EQ(spec.algorithm, join::Algorithm::kHybridHash);
  spec.result_name = std::string("skew_answer");
  auto out = join::ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(catalog_.Drop("skew_answer").ok());
}

}  // namespace
}  // namespace gammadb::db
