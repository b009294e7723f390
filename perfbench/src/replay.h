// Layer replays: one layer's public functions called directly on a
// workload's loaded data, timed from outside. They run on a machine of
// their own, so they never touch the simulated metrics of the timed
// joins.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

struct SortSample {
  double ms = 0;
  int merge_passes = 0;
};

struct HashTableSample {
  double build_ns_per_tuple = 0;
  double probe_ns_per_tuple = 0;
};

class LayerReplay {
 public:
  /// `setup` is the replay machine; it must have been built with
  /// kReplayThreads executor threads.
  LayerReplay(WorkloadId id, std::unique_ptr<Setup> setup,
              SpanRecorder* spans);

  static constexpr int kReplayThreads = 4;

  /// storage: HeapFile::Scan (block reads) over every outer fragment.
  double ScanNsPerTuple();
  /// storage: ExternalSort of outer fragment 0 on the join attribute at
  /// the workload's per-node join memory.
  SortSample Sort();
  /// sim: Exchange::Account + SendBatch routing outer fragment 0 over
  /// every node by join-attribute hash, then DrainInboxBlocks.
  double ExchangeNsPerTuple();
  /// sim: one Machine::RunOnNodes barrier of empty tasks over every
  /// node, at kReplayThreads threads (mean of a batch).
  double BarrierMicros();
  /// join: JoinHashTable::Insert over inner fragment 0, then ProbeBatch
  /// with outer fragment 0.
  HashTableSample HashTable();

 private:
  gammadb::sim::Machine& machine() { return *setup_->machine; }

  WorkloadId id_;
  std::unique_ptr<Setup> setup_;
  SpanRecorder* spans_;
  gammadb::db::StoredRelation* inner_;
  gammadb::db::StoredRelation* outer_;
  int inner_field_;
  int outer_field_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
