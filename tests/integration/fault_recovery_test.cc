// The fault matrix (ISSUE 3): every join algorithm must survive every
// fault class and still produce exactly the tuples of a fault-free run.
//
//   4 algorithms x {disk-transient, disk-hard, packet, node-crash} x 3 seeds
//
// Faults only ever change *metrics* (retries, retransmissions, wasted
// recovery time) — never data. Transient disk errors heal inside the
// disk's retry loop; a retry budget exhausted mid-operator or a node
// crash aborts the operator, which ExecuteJoin answers with Gamma's
// recovery scheme: discard the partial result and re-run. Because
// fault-event counters are monotonic from ArmFaults, the restart runs
// past the consumed faults and completes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/disk.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

using sim::FaultKind;
using sim::FaultPlan;

constexpr int kNumNodes = 4;

enum class FaultClass {
  kDiskTransient,  // scheduled attempts fail, the retry loop heals them
  kDiskHard,       // a burst exhausts the retry budget -> operator restart
  kPacket,         // remote packets lost and duplicated in flight
  kNodeCrash,      // a node dies at a phase entry -> operator restart
};

const char* FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kDiskTransient:
      return "disk-transient";
    case FaultClass::kDiskHard:
      return "disk-hard";
    case FaultClass::kPacket:
      return "packet";
    case FaultClass::kNodeCrash:
      return "node-crash";
  }
  return "?";
}

/// A deterministic plan for one (class, seed) matrix cell. Ordinals are
/// kept small so every cell actually fires against the 2000 x 200
/// workload regardless of algorithm.
FaultPlan PlanFor(FaultClass fault_class, uint64_t seed) {
  const int node = static_cast<int>(seed % kNumNodes);
  FaultPlan plan;
  sim::FaultEvent e;
  switch (fault_class) {
    case FaultClass::kDiskTransient:
      plan.AddPeriodic(FaultKind::kDiskReadTransient, node,
                       /*period=*/2 + seed, /*count=*/2);
      e.kind = FaultKind::kDiskWriteTransient;
      e.node = (node + 1) % kNumNodes;
      e.ordinal = 1;
      plan.Add(e);
      break;
    case FaultClass::kDiskHard:
      e.kind = FaultKind::kDiskReadTransient;
      e.node = node;
      e.ordinal = 1 + seed;
      e.repeat = sim::Disk::kMaxIoAttempts;  // -> Status::Unavailable
      plan.Add(e);
      break;
    case FaultClass::kPacket:
      e.kind = FaultKind::kPacketLoss;
      e.node = node;
      e.ordinal = seed;
      plan.Add(e);
      e.kind = FaultKind::kPacketDuplicate;
      e.node = (node + 2) % kNumNodes;
      e.ordinal = seed + 1;
      plan.Add(e);
      break;
    case FaultClass::kNodeCrash:
      e.kind = FaultKind::kNodeCrash;
      e.node = node;
      e.ordinal = 1 + (seed % 2);
      e.phase_label = "";  // any phase
      plan.Add(e);
      break;
  }
  return plan;
}

struct RunOutput {
  std::vector<std::string> rows;
  sim::RunMetrics metrics;
};

/// Runs joinABprime, arming `plan` after loading (fault ordinals count
/// query events, not load events). Asserts the join succeeds.
void RunJoin(join::Algorithm algorithm, const FaultPlan* plan,
             RunOutput* out) {
  sim::Machine machine(testing::SmallConfig(kNumNodes));
  db::Catalog catalog;

  wisconsin::DatasetOptions options;
  options.outer_cardinality = 2000;
  options.inner_cardinality = 200;
  options.seed = 71;
  // Non-HPJA partitioning: the join attribute differs from the
  // declustering attribute, so redistribution puts real packets on the
  // ring (an HPJA join could short-circuit them all, and the packet
  // fault class would never fire).
  options.partition_field = wisconsin::fields::kUnique2;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  if (plan != nullptr) machine.ArmFaults(*plan);

  join::JoinSpec spec = testing::NamedSpec("Bprime", "A");
  spec.algorithm = algorithm;
  spec.use_bit_filters = true;
  spec.result_name = "result";
  auto output = join::ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  out->metrics = output->metrics;
  auto rel = catalog.Get("result");
  ASSERT_TRUE(rel.ok());
  out->rows = testing::Canonical((*rel)->PeekAllTuples());
}

TEST(FaultRecoveryTest, MatrixPreservesJoinResults) {
  for (join::Algorithm algorithm :
       {join::Algorithm::kSortMerge, join::Algorithm::kSimpleHash,
        join::Algorithm::kGraceHash, join::Algorithm::kHybridHash}) {
    SCOPED_TRACE(join::AlgorithmName(algorithm));
    RunOutput clean;
    RunJoin(algorithm, nullptr, &clean);
    if (HasFatalFailure()) return;
    ASSERT_FALSE(clean.rows.empty());
    EXPECT_FALSE(clean.metrics.counters.AnyFaults());
    EXPECT_EQ(clean.metrics.recovery_seconds, 0.0);

    for (FaultClass fault_class :
         {FaultClass::kDiskTransient, FaultClass::kDiskHard,
          FaultClass::kPacket, FaultClass::kNodeCrash}) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(std::string(FaultClassName(fault_class)) + " seed " +
                     std::to_string(seed));
        const FaultPlan plan = PlanFor(fault_class, seed);
        RunOutput faulted;
        RunJoin(algorithm, &plan, &faulted);
        if (HasFatalFailure()) return;

        // Recovery is invisible in the data: the tuple multiset is
        // identical to the fault-free run.
        EXPECT_EQ(faulted.rows, clean.rows);

        // ...but visible in the metrics.
        const sim::Counters& c = faulted.metrics.counters;
        EXPECT_TRUE(c.AnyFaults());
        switch (fault_class) {
          case FaultClass::kDiskTransient:
            EXPECT_GT(c.disk_read_faults + c.disk_write_faults, 0);
            EXPECT_GT(c.io_retries, 0);
            EXPECT_EQ(c.operator_restarts, 0);  // retries heal in place
            break;
          case FaultClass::kDiskHard:
            EXPECT_GE(c.disk_read_faults, sim::Disk::kMaxIoAttempts);
            EXPECT_GE(c.operator_restarts, 1);
            EXPECT_GT(faulted.metrics.recovery_seconds, 0.0);
            break;
          case FaultClass::kPacket:
            EXPECT_EQ(c.packets_lost, 1);
            EXPECT_EQ(c.packets_retransmitted, 1);
            EXPECT_EQ(c.packets_duplicated, 1);
            EXPECT_EQ(c.operator_restarts, 0);  // protocol-level recovery
            break;
          case FaultClass::kNodeCrash:
            EXPECT_GE(c.node_crashes, 1);
            EXPECT_GE(c.operator_restarts, 1);
            EXPECT_GT(faulted.metrics.recovery_seconds, 0.0);
            break;
        }
        // Recovery time, when booked, is wasted time inside the
        // response time — never larger than it.
        EXPECT_LE(faulted.metrics.recovery_seconds,
                  faulted.metrics.response_seconds);
        // Faults only add work: a faulted run is never faster.
        EXPECT_GE(faulted.metrics.response_seconds,
                  clean.metrics.response_seconds);
      }
    }
  }
}

}  // namespace
}  // namespace gammadb
