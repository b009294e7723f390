// The tracing determinism contract (docs/tracing.md): the serialized
// trace is stamped in simulated time only, so it is byte-identical at
// any executor thread count — for every join algorithm, with and
// without injected faults. Also covers the cost-attribution identities
// (per-node categories sum to the charged cpu + disk seconds; ring
// components sum to ring_seconds) and the opt-in attribution section of
// the metrics JSON.
#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "gamma/catalog.h"
#include "join/driver.h"
#include "sim/fault.h"
#include "sim/machine.h"
#include "sim/metrics_json.h"
#include "testing/test_util.h"
#include "wisconsin/wisconsin.h"

namespace gammadb {
namespace {

/// Runs joinABprime (2000 x 200, seed 71, non-HPJA so remote packets
/// flow) with a Tracer attached and returns the serialized trace plus
/// the run metrics.
void RunTraced(join::Algorithm algorithm, int threads,
               const sim::FaultPlan* faults, std::string* trace_json,
               sim::RunMetrics* metrics) {
  sim::MachineConfig config = testing::SmallConfig(4);
  config.num_threads = threads;
  sim::Machine machine(config);
  sim::Tracer tracer;
  machine.set_tracer(&tracer, "trace_test");
  db::Catalog catalog;

  wisconsin::DatasetOptions options;
  options.outer_cardinality = 2000;
  options.inner_cardinality = 200;
  options.seed = 71;
  options.partition_field = wisconsin::fields::kUnique2;
  auto loaded = wisconsin::LoadJoinABprime(machine, catalog, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  if (faults != nullptr) machine.ArmFaults(*faults);

  join::JoinSpec spec = testing::NamedSpec("Bprime", "A");
  spec.algorithm = algorithm;
  spec.memory_ratio = 1.0;
  spec.memory_slack = 0.35;
  spec.use_bit_filters = true;
  spec.result_name = "result";
  auto output = join::ExecuteJoin(machine, catalog, spec);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  *trace_json = tracer.Dump();
  *metrics = output->metrics;
}

sim::FaultPlan MixedFaultPlan() {
  sim::FaultPlan plan;
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kDiskReadTransient;
  e.node = 1;
  e.ordinal = 3;
  plan.Add(e);
  e.kind = sim::FaultKind::kPacketLoss;
  e.node = 0;
  e.ordinal = 2;
  plan.Add(e);
  e.kind = sim::FaultKind::kPacketDuplicate;
  e.node = 3;
  e.ordinal = 1;
  plan.Add(e);
  e.kind = sim::FaultKind::kNodeCrash;
  e.node = 1;
  e.ordinal = 1;
  e.phase_label = "";
  plan.Add(e);
  return plan;
}

TEST(TraceTest, TraceIsThreadCountInvariant) {
  const sim::FaultPlan faults = MixedFaultPlan();
  for (join::Algorithm algorithm :
       {join::Algorithm::kSortMerge, join::Algorithm::kSimpleHash,
        join::Algorithm::kGraceHash, join::Algorithm::kHybridHash}) {
    for (const sim::FaultPlan* plan :
         {static_cast<const sim::FaultPlan*>(nullptr), &faults}) {
      SCOPED_TRACE(std::string(join::AlgorithmName(algorithm)) +
                   (plan != nullptr ? " / faulted" : " / clean"));
      std::string serial_trace;
      sim::RunMetrics serial_metrics;
      RunTraced(algorithm, 1, plan, &serial_trace, &serial_metrics);
      if (HasFatalFailure()) return;
      EXPECT_NE(serial_trace.find("\"traceEvents\""), std::string::npos);
      for (int threads : {4, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::string pooled_trace;
        sim::RunMetrics pooled_metrics;
        RunTraced(algorithm, threads, plan, &pooled_trace, &pooled_metrics);
        if (HasFatalFailure()) return;
        EXPECT_EQ(serial_trace, pooled_trace);
      }
    }
  }
}

TEST(TraceTest, AttributionSumsToChargedSeconds) {
  std::string trace;
  sim::RunMetrics metrics;
  RunTraced(join::Algorithm::kHybridHash, 1, nullptr, &trace, &metrics);
  if (HasFatalFailure()) return;
  ASSERT_FALSE(metrics.phases.empty());
  double total_attributed = 0;
  for (const sim::PhaseRecord& phase : metrics.phases) {
    for (const sim::NodeUsage& usage : phase.usage) {
      const double charged = usage.cpu_seconds + usage.disk_seconds;
      EXPECT_NEAR(usage.AttributedSeconds(), charged,
                  1e-9 * std::max(1.0, charged));
      total_attributed += usage.AttributedSeconds();
    }
    EXPECT_NEAR(phase.ring.Total(), phase.ring_seconds,
                1e-9 * std::max(1.0, phase.ring_seconds));
  }
  EXPECT_GT(total_attributed, 0.0);
}

TEST(TraceTest, FaultedRingAttributionIncludesRetransmitAndDuplicate) {
  const sim::FaultPlan faults = MixedFaultPlan();
  std::string trace;
  sim::RunMetrics metrics;
  RunTraced(join::Algorithm::kGraceHash, 1, &faults, &trace, &metrics);
  if (HasFatalFailure()) return;
  double retransmit = 0, duplicate = 0;
  for (const sim::PhaseRecord& phase : metrics.phases) {
    retransmit += phase.ring.retransmit_seconds;
    duplicate += phase.ring.duplicate_seconds;
  }
  EXPECT_GT(retransmit, 0.0);
  EXPECT_GT(duplicate, 0.0);
}

TEST(TraceTest, MetricsJsonAttributionSectionIsOptIn) {
  std::string trace;
  sim::RunMetrics metrics;
  RunTraced(join::Algorithm::kSimpleHash, 1, nullptr, &trace, &metrics);
  if (HasFatalFailure()) return;
  const std::string plain = sim::RunMetricsToJson(metrics).Dump();
  EXPECT_EQ(plain.find("\"attribution\""), std::string::npos);
  EXPECT_EQ(plain.find("\"attribution_totals\""), std::string::npos);
  const std::string with_attribution =
      sim::RunMetricsToJson(metrics, /*include_attribution=*/true).Dump();
  EXPECT_NE(with_attribution.find("\"attribution\""), std::string::npos);
  EXPECT_NE(with_attribution.find("\"attribution_totals\""),
            std::string::npos);
  EXPECT_NE(with_attribution.find("\"ring\""), std::string::npos);
  // The opt-in document must still contain the baseline document's
  // bytes-shaping keys untouched.
  EXPECT_NE(with_attribution.find("\"counters\""), std::string::npos);
}

TEST(TraceTest, NodeUsageTraceArgsHoldsNonzeroCategories) {
  sim::NodeUsage usage;
  usage.cpu_seconds = 2.0;
  usage.disk_seconds = 1.0;
  usage.by_category[static_cast<size_t>(sim::CostCategory::kHtProbe)] = 2.0;
  usage.by_category[static_cast<size_t>(sim::CostCategory::kDiskSeq)] = 1.0;
  const JsonValue args = sim::NodeUsageTraceArgs(usage);
  const JsonValue* attribution = args.Find("attribution");
  ASSERT_NE(attribution, nullptr);
  EXPECT_EQ(attribution->AsObject().size(), 2u);
  EXPECT_DOUBLE_EQ(attribution->Find("ht_probe")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(attribution->Find("disk_seq")->AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(args.Find("cpu_seconds")->AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(args.Find("disk_seconds")->AsDouble(), 1.0);
}

TEST(TraceTest, TracerEmitsSortedSpansAndMetadata) {
  sim::Tracer tracer;
  const int pid = tracer.RegisterMachine(2, 2, "unit");
  sim::PhaseRecord record;
  record.label = "late";
  record.usage.resize(2);
  record.usage[0].cpu_seconds = 1.0;
  record.usage[0].by_category[static_cast<size_t>(
      sim::CostCategory::kOther)] = 1.0;
  record.elapsed_seconds = 1.0;
  tracer.RecordPhase(pid, /*start_seconds=*/5.0, record);
  record.label = "early";
  tracer.RecordPhase(pid, /*start_seconds=*/2.0, record);
  const std::string dump = tracer.Dump();
  // The later-recorded but earlier-in-time phase must serialize first.
  EXPECT_LT(dump.find("\"early\""), dump.find("\"late\""));
  EXPECT_NE(dump.find("\"process_name\""), std::string::npos);
  EXPECT_NE(dump.find("\"thread_name\""), std::string::npos);
}

}  // namespace
}  // namespace gammadb
