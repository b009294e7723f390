// Process-granular join parallelism: several join processes may share a
// processor (the split tables are per-PROCESS, paper Appendix A), which
// is the appendix's remedy for the mod-structure starvation pathology
// ("if we (somehow) add a fifth join process to the three-bucket Hybrid
// join, all join processes can theoretically receive tuples").
#include <gtest/gtest.h>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

class MultiProcessJoinTest : public ::testing::Test {
 protected:
  // The appendix configuration: two disk nodes, two diskless nodes.
  MultiProcessJoinTest() : machine_(testing::SmallConfig(2, 2)) {
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 3000;
    options.inner_cardinality = 600;
    options.seed = 23;
    auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  JoinOutput MustJoin(const std::function<void(JoinSpec&)>& mutate) {
    JoinSpec spec = testing::NamedSpec("Bprime", "A");
    spec.algorithm = Algorithm::kHybridHash;
    spec.result_name = "mp_result";
    mutate(spec);
    auto output = ExecuteJoin(machine_, catalog_, spec);
    GAMMA_CHECK(output.ok()) << output.status().ToString();
    GAMMA_CHECK_OK(catalog_.Drop("mp_result"));
    return std::move(output).value();
  }

  int64_t DisklessInserts() {
    return machine_.node(2).counters().ht_inserts +
           machine_.node(3).counters().ht_inserts;
  }

  sim::Machine machine_;
  db::Catalog catalog_;
};

TEST_F(MultiProcessJoinTest, AppendixStarvationPathologyReproduced) {
  // 3-bucket Hybrid, 4 join processes, analyzer OFF. The 8-entry
  // partitioning table re-maps each STORED bucket onto only two of the
  // four processes (Appendix A, Table 4: every bucket-2 tuple of disk 1
  // goes to join site 1): the disk nodes end up with 1.5x the diskless
  // nodes' build work (buckets 0+1+2 vs buckets 0+... of bucket 3).
  // Each stored bucket lands on only HALF the processes ("sites 1 and 2
  // will have twice as many tuples as expected, and hence the
  // probability of memory overflow is much higher"): with memory sized
  // by the optimizer's even-spread assumption, the join overflows —
  // and the Simple-hash machinery resolves it correctly.
  auto starved = MustJoin([&](JoinSpec& spec) {
    spec.join_nodes = {0, 1, 2, 3};
    spec.num_buckets = 3;
    spec.use_bucket_analyzer = false;
    spec.memory_ratio = 1.0 / 3.0;
  });
  EXPECT_EQ(starved.stats.result_tuples, 600u);
  EXPECT_GT(starved.stats.overflow_events, 0);
  // (The exact split-table mapping of the pathology — every bucket-2
  // tuple of disk 1 re-mapping to join site 1 — is asserted
  // entry-by-entry in split_table_test.cc.)

  // The analyzer's remedy: grow 3 buckets to 4.
  auto fixed = MustJoin([&](JoinSpec& spec) {
    spec.join_nodes = {0, 1, 2, 3};
    spec.num_buckets = 3;
    spec.use_bucket_analyzer = true;
    spec.memory_ratio = 1.0;
  });
  EXPECT_EQ(fixed.stats.num_buckets, 4);
  EXPECT_EQ(fixed.stats.result_tuples, 600u);
}

TEST_F(MultiProcessJoinTest, FifthProcessUnstarvesThreeBuckets) {
  // The appendix's alternative remedy: keep 3 buckets but run FIVE join
  // processes (two share node 3). Every process can receive tuples.
  auto output = MustJoin([&](JoinSpec& spec) {
    spec.join_nodes = {0, 1, 2, 3, 3};
    spec.num_buckets = 3;
    spec.use_bucket_analyzer = false;
    spec.memory_ratio = 1.0;
  });
  EXPECT_EQ(output.stats.result_tuples, 600u);
  // All four processors (and both processes on node 3) build tuples.
  for (int node = 0; node < 4; ++node) {
    EXPECT_GT(machine_.node(node).counters().ht_inserts, 60) << node;
  }
}

TEST_F(MultiProcessJoinTest, DuplicatedProcessesStayCorrect) {
  // Two processes on every node, constrained memory, filters on: the
  // result must still match the reference.
  auto output = MustJoin([&](JoinSpec& spec) {
    spec.join_nodes = {0, 0, 1, 1, 2, 2, 3, 3};
    spec.memory_ratio = 0.3;
    spec.use_bit_filters = true;
  });
  EXPECT_EQ(output.stats.result_tuples, 600u);

  auto inner = catalog_.Get("Bprime");
  auto outer = catalog_.Get("A");
  ASSERT_TRUE(inner.ok() && outer.ok());
  const auto expected = testing::ReferenceJoin(
      (*inner)->PeekAllTuples(), (*inner)->schema(),
      wisconsin::fields::kUnique1, (*outer)->PeekAllTuples(),
      (*outer)->schema(), wisconsin::fields::kUnique1);
  EXPECT_EQ(expected.size(), 600u);
}

TEST_F(MultiProcessJoinTest, SimpleHashWithProcessPairs) {
  auto output = MustJoin([&](JoinSpec& spec) {
    spec.algorithm = Algorithm::kSimpleHash;
    spec.join_nodes = {2, 2, 3, 3};
    spec.memory_ratio = 0.4;
  });
  EXPECT_EQ(output.stats.result_tuples, 600u);
  EXPECT_GT(output.stats.overflow_events, 0);
}

}  // namespace
}  // namespace gammadb::join
