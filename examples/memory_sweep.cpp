// Memory sweep: compare all four parallel join algorithms while the
// aggregate joining memory shrinks from 100% of the inner relation to
// 10% — a compact version of the paper's central experiment (Figure 5),
// at a reduced scale so it runs instantly.
//
//   $ ./build/examples/memory_sweep [outer_cardinality]
#include <cstdio>
#include <cstdlib>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/machine.h"
#include "wisconsin/wisconsin.h"

using namespace gammadb;

int main(int argc, char** argv) {
  uint32_t outer_cardinality = 20000;
  if (argc > 1) outer_cardinality = static_cast<uint32_t>(std::atoi(argv[1]));

  sim::MachineConfig config;
  config.num_disk_nodes = 8;
  sim::Machine machine(config);
  db::Catalog catalog;

  wisconsin::DatasetOptions dataset;
  dataset.outer_cardinality = outer_cardinality;
  dataset.inner_cardinality = outer_cardinality / 10;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, dataset);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }

  const join::Algorithm algorithms[] = {
      join::Algorithm::kHybridHash, join::Algorithm::kGraceHash,
      join::Algorithm::kSimpleHash, join::Algorithm::kSortMerge};

  std::printf("joinABprime at %u x %u tuples, 8 disk nodes\n",
              outer_cardinality, outer_cardinality / 10);
  std::printf("%-8s%14s%14s%14s%14s\n", "memory", "Hybrid", "Grace", "Simple",
              "SortMerge");
  for (double ratio : {1.0, 0.5, 1.0 / 3, 0.25, 0.2, 0.125, 0.1}) {
    std::printf("%-8.3f", ratio);
    for (join::Algorithm algorithm : algorithms) {
      join::JoinSpec spec;
      spec.inner_relation = std::string("Bprime");
      spec.outer_relation = std::string("A");
      spec.algorithm = algorithm;
      spec.memory_ratio = ratio;
      spec.result_name = "sweep_result";
      auto output = join::ExecuteJoin(machine, catalog, spec);
      if (!output.ok()) {
        std::fprintf(stderr, "%s\n", output.status().ToString().c_str());
        return 1;
      }
      std::printf("%13.2fs", output->response_seconds());
      if (!catalog.Drop("sweep_result").ok()) return 1;
    }
    std::printf("\n");
  }
  std::printf("\n(seconds of simulated response time; smaller is better)\n");
  return 0;
}
