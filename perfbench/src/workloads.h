// The benchmark's three workloads (perfbench/README.md): each is one
// joinABprime-scale query shape on the paper's local configuration
// (8 disk nodes, 100k-tuple outer, 10k-tuple inner, 208-byte tuples),
// built from a seed into a fresh machine of its own.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "gamma/catalog.h"
#include "join/spec.h"
#include "sim/machine.h"
#include "spans.h"

namespace perfbench {

enum class WorkloadId { kHpjaResident, kNonhpjaSortmerge, kNuOverflow };

inline constexpr uint32_t kOuterTuples = 100000;
inline constexpr uint32_t kInnerTuples = 10000;
inline constexpr int kDiskNodes = 8;

/// Parses a workload name; false when unknown.
bool ParseWorkload(const std::string& name, WorkloadId* id);
const char* WorkloadName(WorkloadId id);
std::vector<std::string> WorkloadNames();

/// A fresh machine with the workload's relations loaded.
struct Setup {
  std::unique_ptr<gammadb::sim::Machine> machine;
  gammadb::db::Catalog catalog;  // destroyed before the machine
  double generate_s = 0;         // wisconsin::Generate (+ sampling)
  double load_s = 0;             // db::LoadRelation of both relations
};

/// Builds a machine with `threads` executor threads and loads the
/// workload's relations generated from `seed` into it (gamma layer),
/// recording generate and load spans on `spans` (may be null).
gammadb::Result<std::unique_ptr<Setup>> Build(WorkloadId id, uint64_t seed,
                                              int threads, SpanRecorder* spans);

/// The workload's join; the result is stored under `result_name`.
gammadb::join::JoinSpec Spec(WorkloadId id, const std::string& result_name);

/// Per-node join memory in bytes at the workload's memory ratio (the
/// budget the storage replay sorts with).
uint64_t PerNodeJoinMemory(WorkloadId id, const gammadb::db::Catalog& catalog);

/// The checked-in workload-validity expectations: the counts that make
/// each workload exercise the layers it was chosen for. Returns an empty
/// string when `output` meets them, else which expectation broke.
std::string CheckValidity(WorkloadId id,
                          const gammadb::join::JoinOutput& output);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
