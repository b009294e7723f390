// Property tests over the join engines: for a grid of workloads
// (duplicate densities, join attributes, memory budgets, predicates),
// every algorithm must produce byte-identical result multisets, and the
// execution metrics must satisfy structural invariants.
#include <gtest/gtest.h>

#include <tuple>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::join {
namespace {

// (join field, memory ratio, with selection predicate)
using PropertyParam = std::tuple<int, double, bool>;

class JoinPropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  JoinPropertyTest() : machine_(testing::SmallConfig(4)) {
    wisconsin::DatasetOptions options;
    options.outer_cardinality = 1500;
    options.inner_cardinality = 300;
    options.seed = 21;
    auto loaded = wisconsin::LoadJoinABprime(machine_, catalog_, options);
    GAMMA_CHECK(loaded.ok());
  }

  sim::Machine machine_;
  db::Catalog catalog_;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  const auto& [field, ratio, predicate] = info.param;
  std::string name = "field" + std::to_string(field) + "_m" +
                     std::to_string(static_cast<int>(ratio * 100));
  if (predicate) name += "_pred";
  return name;
}

TEST_P(JoinPropertyTest, AllAlgorithmsAgreeWithReference) {
  const auto& [field, ratio, with_predicate] = GetParam();

  JoinSpec base = testing::NamedSpec("Bprime", "A");
  base.inner_field = field;
  base.outer_field = field;
  base.memory_ratio = ratio;
  if (with_predicate) {
    base.outer_predicate = {db::Predicate{
        wisconsin::fields::kFiftyPercent, db::Predicate::Op::kEq, 0}};
  }

  auto inner_rel = catalog_.Get("Bprime");
  auto outer_rel = catalog_.Get("A");
  ASSERT_TRUE(inner_rel.ok() && outer_rel.ok());
  const auto expected = testing::Canonical(testing::ReferenceJoin(
      (*inner_rel)->PeekAllTuples(), (*inner_rel)->schema(), field,
      (*outer_rel)->PeekAllTuples(), (*outer_rel)->schema(), field,
      base.inner_predicate, base.outer_predicate));

  for (Algorithm algorithm :
       {Algorithm::kSortMerge, Algorithm::kSimpleHash, Algorithm::kGraceHash,
        Algorithm::kHybridHash}) {
    for (bool filters : {false, true}) {
      JoinSpec spec = base;
      spec.algorithm = algorithm;
      spec.use_bit_filters = filters;
      spec.result_name = "prop_result";
      auto output = ExecuteJoin(machine_, catalog_, spec);
      ASSERT_TRUE(output.ok()) << output.status().ToString();

      auto result_rel = catalog_.Get("prop_result");
      ASSERT_TRUE(result_rel.ok());
      EXPECT_EQ(testing::Canonical((*result_rel)->PeekAllTuples()), expected)
          << AlgorithmName(algorithm) << (filters ? " +filters" : "");

      // Structural metric invariants.
      const auto& c = output->metrics.counters;
      EXPECT_EQ(output->stats.result_tuples, expected.size());
      EXPECT_EQ(c.result_tuples, static_cast<int64_t>(expected.size()));
      EXPECT_GE(c.pages_read, 0);
      EXPECT_GE(c.ht_probes, 0);
      const double short_circuit = c.ShortCircuitFraction();
      EXPECT_GE(short_circuit, 0.0);
      EXPECT_LE(short_circuit, 1.0);
      EXPECT_GT(output->metrics.response_seconds, 0.0);
      // Phase times sum to the response time.
      double sum = 0;
      for (const auto& phase : output->metrics.phases) {
        sum += phase.elapsed_seconds;
      }
      EXPECT_NEAR(sum, output->metrics.response_seconds, 1e-9);

      ASSERT_TRUE(catalog_.Drop("prop_result").ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, JoinPropertyTest,
    ::testing::Values(
        // Unique join attribute (one-to-one matches).
        PropertyParam{wisconsin::fields::kUnique1, 1.0, false},
        PropertyParam{wisconsin::fields::kUnique1, 0.3, false},
        PropertyParam{wisconsin::fields::kUnique2, 0.5, true},
        // Low-cardinality attributes: heavy many-to-many duplicates
        // (every inner tuple matches ~10% / ~5% of the outer relation).
        PropertyParam{wisconsin::fields::kTen, 0.6, true},
        PropertyParam{wisconsin::fields::kTwenty, 0.4, false},
        // Medium duplicates with deep overflow recursion.
        PropertyParam{wisconsin::fields::kOnePercent, 0.15, false}),
    ParamName);

}  // namespace
}  // namespace gammadb::join
