// Machine-width sweep: every algorithm must stay correct on any number
// of disk nodes (including widths that don't divide the hash space
// evenly) and with diskless joiners layered on top.
#include <gtest/gtest.h>

#include <tuple>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

using WidthParam = std::tuple<int /*disks*/, int /*diskless*/, Algorithm>;

class MachineWidthTest : public ::testing::TestWithParam<WidthParam> {};

std::string WidthParamName(const ::testing::TestParamInfo<WidthParam>& info) {
  const auto& [disks, diskless, algorithm] = info.param;
  std::string name = AlgorithmName(algorithm);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_d" + std::to_string(disks) + "_x" +
         std::to_string(diskless);
}

TEST_P(MachineWidthTest, CorrectOnThisTopology) {
  const auto& [disks, diskless, algorithm] = GetParam();
  sim::Machine machine(testing::SmallConfig(disks, diskless));
  db::Catalog catalog;
  wisconsin::DatasetOptions options;
  options.outer_cardinality = 2500;
  options.inner_cardinality = 250;
  options.seed = 47;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, options);
  ASSERT_TRUE(loaded.ok());

  JoinSpec spec = testing::NamedSpec("Bprime", "A");
  spec.algorithm = algorithm;
  spec.memory_ratio = 0.3;
  spec.use_bit_filters = true;
  if (diskless > 0 && algorithm != Algorithm::kSortMerge) {
    spec.join_nodes = machine.DisklessNodeIds();
  }
  auto output = ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output->stats.result_tuples, 250u);

  auto result = catalog.Get(output->result_relation);
  ASSERT_TRUE(result.ok());
  const auto expected = testing::ReferenceJoin(
      loaded->inner->PeekAllTuples(), loaded->inner->schema(),
      spec.inner_field, loaded->outer->PeekAllTuples(),
      loaded->outer->schema(), spec.outer_field);
  EXPECT_EQ(testing::Canonical((*result)->PeekAllTuples()),
            testing::Canonical(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, MachineWidthTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(0, 3),
                       ::testing::Values(Algorithm::kSortMerge,
                                         Algorithm::kSimpleHash,
                                         Algorithm::kGraceHash,
                                         Algorithm::kHybridHash)),
    WidthParamName);

}  // namespace
}  // namespace gammadb::join
