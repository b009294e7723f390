// Shared helpers for the gammadb test suite.
#ifndef GAMMA_TESTS_TESTING_TEST_UTIL_H_
#define GAMMA_TESTS_TESTING_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gamma/catalog.h"
#include "gamma/predicate.h"
#include "join/spec.h"
#include "sim/machine.h"
#include "storage/tuple.h"
#include "wisconsin/wisconsin.h"

namespace gammadb::testing {

/// A small local configuration (disk nodes only). Tests run with a
/// pooled executor by default: the determinism contract (DESIGN.md)
/// guarantees metrics identical to num_threads = 1, and running the
/// suite threaded keeps that contract continuously exercised.
inline sim::MachineConfig SmallConfig(int disk_nodes = 4,
                                      int diskless_nodes = 0) {
  sim::MachineConfig config;
  config.num_disk_nodes = disk_nodes;
  config.num_diskless_nodes = diskless_nodes;
  config.num_threads = 4;
  return config;
}

/// Canonical multiset representation of a tuple set: sorted raw-byte
/// strings. Two tuple sets are equal iff their canonical forms match.
inline std::vector<std::string> Canonical(
    const std::vector<storage::Tuple>& tuples) {
  std::vector<std::string> rows;
  rows.reserve(tuples.size());
  for (const auto& t : tuples) {
    rows.emplace_back(reinterpret_cast<const char*>(t.data()), t.size());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Dataset shared by the executor-equivalence integration tests: a
/// Wisconsin joinABprime instance small enough to run the full
/// algorithm matrix quickly but large enough to exercise overflow at
/// low memory ratios.
inline wisconsin::DatasetOptions ABprimeDataset() {
  wisconsin::DatasetOptions options;
  options.outer_cardinality = 3000;
  options.inner_cardinality = 300;
  options.seed = 53;
  return options;
}

/// A default join spec over the named relations. Every test spec starts
/// here: the names are moved in from by-value parameters, because
/// assigning string literals to a JoinSpec's std::string fields trips
/// GCC 12's -Wrestrict false positive at -O3, depending on the struct's
/// layout.
inline join::JoinSpec NamedSpec(std::string inner, std::string outer) {
  join::JoinSpec spec;
  spec.inner_relation = std::move(inner);
  spec.outer_relation = std::move(outer);
  return spec;
}

/// Join spec over ABprimeDataset(). capture_results is on so callers
/// can compare JoinOutput::result_digest across configurations
/// (docs/testing.md).
inline join::JoinSpec ABprimeSpec(join::Algorithm algorithm,
                                  double memory_ratio) {
  join::JoinSpec spec = NamedSpec("Bprime", "A");
  spec.algorithm = algorithm;
  spec.memory_ratio = memory_ratio;
  spec.use_bit_filters = true;
  spec.result_name = "result";
  spec.capture_results = true;
  return spec;
}

/// Single-threaded reference equi-join (ground truth for the parallel
/// algorithms): result tuples are Concat(inner, outer), matching the
/// engines' output composition.
inline std::vector<storage::Tuple> ReferenceJoin(
    const std::vector<storage::Tuple>& inner_tuples,
    const storage::Schema& inner_schema, int inner_field,
    const std::vector<storage::Tuple>& outer_tuples,
    const storage::Schema& outer_schema, int outer_field,
    const db::PredicateList& inner_pred = {},
    const db::PredicateList& outer_pred = {}) {
  std::multimap<int32_t, const storage::Tuple*> index;
  for (const auto& r : inner_tuples) {
    if (!db::EvalAll(inner_pred, inner_schema, r)) continue;
    index.emplace(r.GetInt32(inner_schema, static_cast<size_t>(inner_field)),
                  &r);
  }
  std::vector<storage::Tuple> out;
  for (const auto& s : outer_tuples) {
    if (!db::EvalAll(outer_pred, outer_schema, s)) continue;
    const int32_t key =
        s.GetInt32(outer_schema, static_cast<size_t>(outer_field));
    auto [lo, hi] = index.equal_range(key);
    for (auto it = lo; it != hi; ++it) {
      out.push_back(storage::Tuple::Concat(*it->second, s));
    }
  }
  return out;
}

}  // namespace gammadb::testing

#endif  // GAMMA_TESTS_TESTING_TEST_UTIL_H_
