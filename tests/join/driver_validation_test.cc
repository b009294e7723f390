// Error handling of the join driver: every invalid spec must come back
// as a Status, never a crash, and never leave a result relation behind.
#include <gtest/gtest.h>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

class DriverValidationTest : public ::testing::Test {
 protected:
  DriverValidationTest() : machine_(testing::SmallConfig(4, 2)) {
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 1000;
    options.inner_cardinality = 100;
    auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  JoinSpec ValidSpec() { return testing::NamedSpec("Bprime", "A"); }

  sim::Machine machine_;
  db::Catalog catalog_;
};

TEST_F(DriverValidationTest, UnknownRelation) {
  JoinSpec spec = testing::NamedSpec("nope", "A");
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kNotFound);
}

TEST_F(DriverValidationTest, BadJoinField) {
  JoinSpec spec = ValidSpec();
  spec.inner_field = 99;
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec = ValidSpec();
  spec.outer_field = wisconsin::fields::kStringU1;  // not int32
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, BadJoinNodes) {
  JoinSpec spec = ValidSpec();
  // Duplicate ids are LEGAL (two join processes on one node).
  spec.join_nodes = {0, 0};
  spec.result_name = "two_procs";
  auto two = ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(two.ok()) << two.status().ToString();
  EXPECT_EQ(two->stats.result_tuples, 100u);
  EXPECT_TRUE(catalog_.Drop("two_procs").ok());
  spec.result_name.clear();
  spec.join_nodes = {99};
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
  spec.join_nodes = {-1};
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, SortMergeRejectsDisklessJoiners) {
  JoinSpec spec = ValidSpec();
  spec.algorithm = Algorithm::kSortMerge;
  spec.join_nodes = machine_.DisklessNodeIds();
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, ZeroMemory) {
  JoinSpec spec = ValidSpec();
  spec.memory_ratio = 0.0;
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, CapacityBelowOneTuple) {
  JoinSpec spec = ValidSpec();
  spec.memory_bytes = 100;  // < 208 bytes per node
  spec.memory_slack = 0.0;
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DriverValidationTest, ResultNameCollision) {
  JoinSpec spec = ValidSpec();
  spec.result_name = std::string("A");  // already exists
  EXPECT_EQ(ExecuteJoin(machine_, catalog_, spec).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(DriverValidationTest, ExplicitMemoryBytesOverridesRatio) {
  JoinSpec spec = ValidSpec();
  spec.memory_ratio = 0.0;  // would be invalid alone
  spec.memory_bytes = 100u * 208u;  // 100 tuples aggregate
  auto output = ExecuteJoin(machine_, catalog_, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->stats.result_tuples, 100u);
  EXPECT_TRUE(catalog_.Drop(output->result_relation).ok());
}

TEST_F(DriverValidationTest, FailedRunLeavesNoResultRelation) {
  JoinSpec spec = ValidSpec();
  spec.inner_field = 99;
  spec.result_name = "should_not_exist";
  EXPECT_FALSE(ExecuteJoin(machine_, catalog_, spec).ok());
  EXPECT_FALSE(catalog_.Get("should_not_exist").ok());
}

TEST_F(DriverValidationTest, OptimizerBucketCountFormula) {
  EXPECT_EQ(OptimizerBucketCount(1000, 1000), 1);
  EXPECT_EQ(OptimizerBucketCount(1000, 500), 2);
  EXPECT_EQ(OptimizerBucketCount(1001, 500), 3);
  EXPECT_EQ(OptimizerBucketCount(0, 500), 1);
  // Floating-point ratio tolerance: 1/3 of 2,080,000 truncated.
  EXPECT_EQ(OptimizerBucketCount(2080000, 693333), 3);
}

TEST_F(DriverValidationTest, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kSortMerge), "sort-merge");
  EXPECT_STREQ(AlgorithmName(Algorithm::kSimpleHash), "simple-hash");
  EXPECT_STREQ(AlgorithmName(Algorithm::kGraceHash), "grace-hash");
  EXPECT_STREQ(AlgorithmName(Algorithm::kHybridHash), "hybrid-hash");
}

}  // namespace
}  // namespace gammadb::join
