#include "workloads.h"

#include <algorithm>
#include <chrono>

#include "gamma/loader.h"
#include "wisconsin/wisconsin.h"

namespace perfbench {

namespace gdb = gammadb;
namespace fields = gammadb::wisconsin::fields;

namespace {

struct Def {
  WorkloadId id;
  const char* name;
};

constexpr Def kDefs[] = {
    {WorkloadId::kHpjaResident, "hpja_resident"},
    {WorkloadId::kNonhpjaSortmerge, "nonhpja_sortmerge"},
    {WorkloadId::kNuOverflow, "nu_overflow"},
};

double MemoryRatio(WorkloadId id) {
  return id == WorkloadId::kHpjaResident ? 1.0 : 0.1;
}

/// The generated relations of one workload (the program receives only
/// these).
struct Relations {
  std::vector<gdb::storage::Tuple> outer;
  std::vector<gdb::storage::Tuple> inner;
};

Relations Generate(WorkloadId id, uint64_t seed) {
  gdb::wisconsin::GenOptions gen;
  gen.cardinality = kOuterTuples;
  gen.seed = seed;
  // NU (paper Table 3): the `normal` column is N(50000, 750), and the
  // inner relation is a random sample of the outer one.
  gen.with_normal_attr = id == WorkloadId::kNuOverflow;
  Relations rel;
  rel.outer = gdb::wisconsin::Generate(gen);
  rel.inner =
      gdb::wisconsin::SampleWithoutReplacement(rel.outer, kInnerTuples, seed + 1);
  return rel;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadId* id) {
  for (const Def& def : kDefs) {
    if (name == def.name) {
      *id = def.id;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadId id) {
  for (const Def& def : kDefs) {
    if (def.id == id) return def.name;
  }
  return "?";
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Def& def : kDefs) names.emplace_back(def.name);
  return names;
}

gdb::Result<std::unique_ptr<Setup>> Build(WorkloadId id, uint64_t seed,
                                          int threads, SpanRecorder* spans) {
  auto setup = std::make_unique<Setup>();
  gdb::sim::MachineConfig config;
  config.num_disk_nodes = kDiskNodes;
  config.num_threads = threads;
  setup->machine = std::make_unique<gdb::sim::Machine>(config);

  auto start = std::chrono::steady_clock::now();
  Relations rel;
  {
    ScopedSpan span(spans, "wisconsin.generate");
    rel = Generate(id, seed);
  }
  setup->generate_s = SecondsSince(start);

  start = std::chrono::steady_clock::now();
  ScopedSpan span(spans, "gamma.load");
  const auto load = [&](const char* name,
                        const std::vector<gdb::storage::Tuple>& tuples,
                        gdb::db::PartitionStrategy strategy,
                        int field) -> gdb::Status {
    GAMMA_ASSIGN_OR_RETURN(
        gdb::db::StoredRelation * relation,
        setup->catalog.Create(*setup->machine, name,
                              gdb::wisconsin::WisconsinSchema()));
    gdb::db::LoadOptions options;
    options.strategy = strategy;
    options.partition_field = field;
    return gdb::db::LoadRelation(relation, tuples, options);
  };
  if (id == WorkloadId::kNuOverflow) {
    // Both relations range-declustered on their join attribute, so every
    // disk holds an equal share of the initial scan (paper Section 4.4).
    GAMMA_RETURN_IF_ERROR(load("A", rel.outer,
                               gdb::db::PartitionStrategy::kRangeUniform,
                               fields::kUnique1));
    GAMMA_RETURN_IF_ERROR(load("Bprime", rel.inner,
                               gdb::db::PartitionStrategy::kRangeUniform,
                               fields::kNormal));
  } else {
    GAMMA_RETURN_IF_ERROR(load("A", rel.outer,
                               gdb::db::PartitionStrategy::kHashed,
                               fields::kUnique1));
    GAMMA_RETURN_IF_ERROR(load("Bprime", rel.inner,
                               gdb::db::PartitionStrategy::kHashed,
                               fields::kUnique1));
  }
  setup->load_s = SecondsSince(start);
  return setup;
}

gdb::join::JoinSpec Spec(WorkloadId id, const std::string& result_name) {
  gdb::join::JoinSpec spec;
  spec.inner_relation = "Bprime";
  spec.outer_relation = "A";
  spec.memory_ratio = MemoryRatio(id);
  spec.result_name = result_name;
  switch (id) {
    case WorkloadId::kHpjaResident:
      spec.algorithm = gdb::join::Algorithm::kHybridHash;
      spec.inner_field = fields::kUnique1;
      spec.outer_field = fields::kUnique1;
      break;
    case WorkloadId::kNonhpjaSortmerge:
      spec.algorithm = gdb::join::Algorithm::kSortMerge;
      spec.inner_field = fields::kUnique2;
      spec.outer_field = fields::kUnique2;
      break;
    case WorkloadId::kNuOverflow:
      spec.algorithm = gdb::join::Algorithm::kHybridHash;
      spec.inner_field = fields::kNormal;
      spec.outer_field = fields::kUnique1;
      spec.memory_slack = 0;
      spec.adaptive_repartition = true;
      break;
  }
  return spec;
}

uint64_t PerNodeJoinMemory(WorkloadId id, const gdb::db::Catalog& catalog) {
  auto inner = catalog.Get("Bprime");
  GAMMA_CHECK(inner.ok()) << inner.status().ToString();
  return static_cast<uint64_t>(MemoryRatio(id) *
                               static_cast<double>((*inner)->total_bytes())) /
         kDiskNodes;
}

std::string CheckValidity(WorkloadId id, const gdb::join::JoinOutput& output) {
  const gdb::join::JoinStats& s = output.stats;
  const gdb::sim::Counters& c = output.metrics.counters;
  switch (id) {
    case WorkloadId::kHpjaResident:
      if (s.inner_sort_passes + s.outer_sort_passes != 0) return "sort passes";
      if (s.overflow_events != 0 || s.spill_bytes != 0) return "spill";
      if (s.rebalance_plans != 0) return "rebalance";
      if (s.num_buckets != 1) return "num_buckets != 1";
      break;
    case WorkloadId::kNonhpjaSortmerge:
      if (c.ht_inserts != 0) return "ht_inserts != 0";
      if (s.inner_sort_passes <= 0 || s.outer_sort_passes <= 0) {
        return "no sort merge passes";
      }
      break;
    case WorkloadId::kNuOverflow:
      if (s.overflow_events <= 0) return "no overflow events";
      if (s.rebalance_plans <= 0) return "no rebalance plans";
      break;
  }
  return "";
}

}  // namespace perfbench
