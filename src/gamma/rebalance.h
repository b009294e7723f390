// Skew-aware adaptive repartitioning (extension; see docs/skew.md).
//
// The paper's Table 3 shows every algorithm degrading under data skew
// because tuples are routed by a static split table: the join process
// that receives the heavy hash values becomes the straggler that sets
// elapsed time. Run-time statistics fix this: during the building-
// relation scan every join process already maintains a HashHistogram of
// its residents (the Section 4.1 overflow histogram), so after the
// build the scheduler can gather those per-bucket counts, find the
// heavy bins, and override their routing — a heavy bin gets a dedicated
// destination or, when one process cannot absorb it, a replicated
// destination set in the spirit of the join-product-skew framework
// (build copies go to every replica, each probe tuple to exactly one,
// so every result pair is produced exactly once).
//
// Only heavy bins are overridden: the balanced bulk keeps the static
// (hash mod J) route, which keeps both the migration volume and the
// serialized override table small.
//
// Every join engine runs the same stage (Rebalancer, below): gather the
// histograms, decide and charge the plan, then answer the two routing
// questions the plan raises — where a migrating resident goes, and
// which replica an outer tuple of an overridden bin probes. An engine
// supplies only its migration source and sink (the hash engines move
// hash-table residents; sort-merge rewrites its redistributed R').
#ifndef GAMMA_GAMMA_REBALANCE_H_
#define GAMMA_GAMMA_REBALANCE_H_

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "sim/machine.h"
#include "sim/node.h"

namespace gammadb::db {

struct RebalanceOptions {
  /// Minimum (max process load / mean process load) under static
  /// routing for a plan to be worth installing.
  double imbalance_threshold = 1.2;
  /// A bin is heavy when its global count exceeds this multiple of the
  /// uniform per-bin share.
  double heavy_bin_factor = 2.0;
  /// Cap on destinations per heavy bin; 0 means up to the number of
  /// join processes.
  int max_replicas = 0;
};

/// Routing overrides for the probing phase, plus the resident migration
/// they imply. Bins are the HashHistogram bins (top log2(num_bins) hash
/// bits), orthogonal to the split table's mod indexing.
struct RebalancePlan {
  bool active = false;
  uint32_t num_bins = 0;
  int shift = 64;  // bin = hash >> shift

  /// Per-bin destination join-process indices. Empty = bin keeps its
  /// static route. Size 1 = dedicated destination; > 1 = replicated.
  std::vector<std::vector<int>> destinations;

  int overridden_bins = 0;
  int replicated_bins = 0;

  uint32_t BinOf(uint64_t hash) const {
    return static_cast<uint32_t>(hash >> shift);
  }

  /// Destination set for `hash`, or nullptr when the static route
  /// applies (inactive plan or non-overridden bin).
  const std::vector<int>* DestinationsFor(uint64_t hash) const {
    if (!active) return nullptr;
    const std::vector<int>& d = destinations[BinOf(hash)];
    return d.empty() ? nullptr : &d;
  }

  /// Bytes needed to ship the override table (one split-table entry per
  /// destination of each overridden bin), charged through the scheduler
  /// like any other split-table broadcast.
  uint64_t SerializedBytes() const;
};

/// Computes a rebalance plan from per-process histogram bin counts of
/// the building relation's residents. `process_bin_counts[p][b]` is the
/// number of residents of join process p in bin b; all processes must
/// report the same power-of-two bin count. `capacity_bytes_per_process`
/// bounds migration: a plan that would overflow any destination's hash
/// table is trimmed, and deactivated if it cannot fit (tuples are
/// fixed-width, so the byte math is exact). Deterministic: depends only
/// on the counts and options.
///
/// The load model mirrors the quadratic probe cost of duplicate keys:
/// a bin holding c residents against a uniform share u costs
/// c + (c - u)^2 / u once c is past the heavy threshold, so splitting a
/// heavy bin over k replicas divides the quadratic term by k. The plan
/// activates only when heavy bins exist, static max/mean load exceeds
/// options.imbalance_threshold, and the planned max load beats the
/// static max load.
RebalancePlan ComputeRebalancePlan(
    const std::vector<std::vector<uint64_t>>& process_bin_counts,
    uint64_t bytes_per_tuple, uint64_t capacity_bytes_per_process,
    const RebalanceOptions& options);

/// The adaptive-repartitioning stage shared by all four join engines.
/// Not thread-safe to Decide/Reset; the per-producer cursors make
/// ProbeDestination safe from concurrent producer tasks.
class Rebalancer {
 public:
  /// Back to the static route: no plan, no cursors.
  void Reset();

  /// Runs inside an open phase. The node of each join process p
  /// (`process_nodes[p]`) scans `histograms[p]`, the resident
  /// histogram of its building relation, charging one compare per bin,
  /// and ships the counts to the scheduler, which computes a plan
  /// (ComputeRebalancePlan with the default RebalanceOptions) unless
  /// `keep_static` and broadcasts the verdict to the processes and
  /// `num_producers` producers. An active plan counts one
  /// rebalance_plans on the first process's node and seeds each
  /// producer's round-robin cursors with its index, so routing is
  /// identical at any thread count. Returns whether a plan is active.
  bool Decide(sim::Machine& machine, const std::vector<int>& process_nodes,
              const std::vector<const HashHistogram*>& histograms,
              size_t num_producers, uint64_t bytes_per_tuple,
              uint64_t capacity_bytes_per_process, bool keep_static);

  const RebalancePlan& plan() const { return plan_; }

  /// Migration side: the destination processes of a resident with
  /// `hash` (a copy goes to each), or nullptr when it stays put. Books
  /// the moved and replica counters on `n`, the migrating node.
  const std::vector<int>* MigrationDestinations(sim::Node& n,
                                                uint64_t hash) const {
    const std::vector<int>* dests = plan_.DestinationsFor(hash);
    if (dests != nullptr) {
      ++n.counters().rebalance_moved_tuples;
      n.counters().rebalance_replica_tuples +=
          static_cast<int64_t>(dests->size()) - 1;
    }
    return dests;
  }

  /// Probe side: the process an outer tuple with `hash` goes to when its
  /// bin is overridden, or -1 when the static route applies. A
  /// replicated bin's tuples go to exactly ONE destination each, chosen
  /// by producer `producer`'s per-bin round-robin cursor, so the probes
  /// spread evenly and every result pair is still produced exactly once.
  int ProbeDestination(size_t producer, uint64_t hash) {
    const std::vector<int>* dests = plan_.DestinationsFor(hash);
    if (dests == nullptr) return -1;
    uint32_t& cursor = cursors_[producer][plan_.BinOf(hash)];
    return (*dests)[cursor++ % dests->size()];
  }

 private:
  RebalancePlan plan_;
  std::vector<std::vector<uint32_t>> cursors_;  // [producer][bin]
};

}  // namespace gammadb::db

#endif  // GAMMA_GAMMA_REBALANCE_H_
