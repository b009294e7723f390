#include "replay.h"

#include <algorithm>
#include <chrono>

#include "common/hash.h"
#include "join/hash_table.h"
#include "sim/exchange.h"
#include "storage/external_sort.h"
#include "storage/tuple_block.h"

namespace perfbench {

namespace gdb = gammadb;

namespace {

using Clock = std::chrono::steady_clock;

/// Brackets replay work in a phase of the replay machine and discards
/// its simulated metrics afterwards.
class ReplayPhase {
 public:
  ReplayPhase(gdb::sim::Machine& machine, const char* label)
      : machine_(machine) {
    machine_.BeginPhase(label);
  }
  ~ReplayPhase() {
    machine_.EndPhase().IgnoreError();
    machine_.ResetMetrics();
  }

 private:
  gdb::sim::Machine& machine_;
};

struct Routed {
  gdb::storage::TupleView view;
  uint64_t hash;
};

}  // namespace

LayerReplay::LayerReplay(WorkloadId id, std::unique_ptr<Setup> setup,
                         SpanRecorder* spans)
    : id_(id), setup_(std::move(setup)), spans_(spans) {
  GAMMA_CHECK_EQ(setup_->machine->config().num_threads, kReplayThreads);
  const gdb::join::JoinSpec spec = Spec(id, "");
  auto inner = setup_->catalog.Get(spec.inner_relation);
  auto outer = setup_->catalog.Get(spec.outer_relation);
  GAMMA_CHECK(inner.ok() && outer.ok());
  inner_ = *inner;
  outer_ = *outer;
  inner_field_ = spec.inner_field;
  outer_field_ = spec.outer_field;
}

double LayerReplay::ScanNsPerTuple() {
  ScopedSpan span(spans_, "replay.storage.scan");
  ReplayPhase phase(machine(), "replay scan");
  const gdb::storage::Schema& schema = outer_->schema();
  const auto start = Clock::now();
  size_t tuples = 0;
  int64_t key_sum = 0;
  gdb::storage::TupleBlock block;
  for (size_t f = 0; f < outer_->num_fragments(); ++f) {
    auto scanner = outer_->fragment(f).Scan();
    while (scanner.NextBlock(&block)) {
      for (size_t i = 0; i < block.size(); ++i) {
        key_sum += schema.GetInt32(block.view(i).data,
                                   static_cast<size_t>(outer_field_));
      }
      tuples += block.size();
    }
    GAMMA_CHECK_OK(scanner.status());
  }
  const double ns = SecondsSince(start) * 1e9;
  GAMMA_CHECK_EQ(tuples, outer_->total_tuples());
  GAMMA_CHECK(key_sum >= 0);
  return ns / static_cast<double>(tuples);
}

SortSample LayerReplay::Sort() {
  ScopedSpan span(spans_, "replay.storage.sort");
  ReplayPhase phase(machine(), "replay sort");
  const gdb::storage::HeapFile& fragment = outer_->fragment(0);
  const uint32_t page_bytes = machine().cost().page_bytes;
  const auto memory_pages = static_cast<uint32_t>(std::max<uint64_t>(
      3, PerNodeJoinMemory(id_, setup_->catalog) / page_bytes));
  const auto start = Clock::now();
  gdb::storage::ExternalSort sort(fragment.node(), &outer_->schema(),
                                  outer_field_, memory_pages);
  GAMMA_CHECK_OK(sort.AddFile(fragment));
  GAMMA_CHECK_OK(sort.FinishInput());
  auto stream = sort.OpenStream();
  gdb::storage::Tuple tuple;
  size_t tuples = 0;
  int32_t last = INT32_MIN;
  while (stream->Next(&tuple)) {
    const int32_t key =
        tuple.GetInt32(outer_->schema(), static_cast<size_t>(outer_field_));
    GAMMA_CHECK_LE(last, key) << "external sort out of order";
    last = key;
    ++tuples;
  }
  SortSample sample;
  sample.ms = SecondsSince(start) * 1e3;
  sample.merge_passes = sort.intermediate_passes();
  GAMMA_CHECK_EQ(tuples, fragment.tuple_count());
  return sample;
}

double LayerReplay::ExchangeNsPerTuple() {
  ScopedSpan span(spans_, "replay.sim.exchange");
  ReplayPhase phase(machine(), "replay exchange");
  const gdb::storage::HeapFile& fragment = outer_->fragment(0);
  const gdb::storage::Schema& schema = outer_->schema();
  const int src = fragment.node()->id();
  const int nodes = machine().num_nodes();
  const uint32_t bytes = schema.tuple_bytes();
  gdb::sim::Exchange<Routed> exchange(&machine());

  // Collect the scan's block views first, so the timed region is the
  // exchange alone.
  std::vector<gdb::storage::TupleView> views;
  {
    gdb::storage::TupleBlock block;
    auto scanner = fragment.Scan();
    while (scanner.NextBlock(&block)) {
      for (size_t i = 0; i < block.size(); ++i) views.push_back(block.view(i));
    }
    GAMMA_CHECK_OK(scanner.status());
  }
  std::vector<uint64_t> hashes(views.size());
  std::vector<std::vector<uint32_t>> runs(static_cast<size_t>(nodes));

  const auto start = Clock::now();
  constexpr size_t kBlock = gdb::storage::TupleBlock::kCapacity;
  for (size_t base = 0; base < views.size(); base += kBlock) {
    const size_t end = std::min(views.size(), base + kBlock);
    for (auto& run : runs) run.clear();
    for (size_t i = base; i < end; ++i) {
      hashes[i] = gdb::HashJoinAttribute(
          schema.GetInt32(views[i].data, static_cast<size_t>(outer_field_)));
      const int dst = static_cast<int>(hashes[i] % static_cast<uint64_t>(nodes));
      exchange.Account(src, dst, bytes);
      runs[static_cast<size_t>(dst)].push_back(static_cast<uint32_t>(i));
    }
    for (int dst = 0; dst < nodes; ++dst) {
      const auto& run = runs[static_cast<size_t>(dst)];
      exchange.SendBatch(src, dst, run.size(), [&](size_t k, Routed& item) {
        item.view = views[run[k]];
        item.hash = hashes[run[k]];
      });
    }
  }
  size_t drained = 0;
  uint64_t hash_xor = 0;
  for (int dst = 0; dst < nodes; ++dst) {
    exchange.DrainInboxBlocks(dst, [&](std::vector<Routed>& lane) {
      for (const Routed& item : lane) hash_xor ^= item.hash;
      drained += lane.size();
    });
  }
  const double ns = SecondsSince(start) * 1e9;
  GAMMA_CHECK_EQ(drained, views.size());
  uint64_t expected_xor = 0;
  for (uint64_t h : hashes) expected_xor ^= h;
  GAMMA_CHECK_EQ(hash_xor, expected_xor);
  return ns / static_cast<double>(views.size());
}

double LayerReplay::BarrierMicros() {
  ScopedSpan span(spans_, "replay.sim.barrier");
  std::vector<int> ids(static_cast<size_t>(machine().num_nodes()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  constexpr int kRounds = 200;
  const auto start = Clock::now();
  for (int r = 0; r < kRounds; ++r) {
    machine().RunOnNodes(ids, [](gdb::sim::Node&) {});
  }
  return SecondsSince(start) * 1e6 / kRounds;
}

HashTableSample LayerReplay::HashTable() {
  ScopedSpan span(spans_, "replay.join.hash_table");
  ReplayPhase phase(machine(), "replay hash table");
  const gdb::storage::Schema& inner_schema = inner_->schema();
  const gdb::storage::Schema& outer_schema = outer_->schema();
  const gdb::storage::HeapFile& build_side = inner_->fragment(0);
  const gdb::storage::HeapFile& probe_side = outer_->fragment(0);
  std::vector<gdb::storage::Tuple> build_tuples = build_side.PeekAll();
  const std::vector<gdb::storage::Tuple> probe_tuples = probe_side.PeekAll();
  const size_t build_count = build_tuples.size();

  // Room for the whole fragment: this replay times insert and probe,
  // not the overflow protocol.
  gdb::join::JoinHashTable table(build_side.node(), &inner_schema,
                                 inner_field_, 2 * build_side.data_bytes() + 1);
  auto start = Clock::now();
  for (gdb::storage::Tuple& t : build_tuples) {
    const int32_t key =
        t.GetInt32(inner_schema, static_cast<size_t>(inner_field_));
    GAMMA_CHECK(table.Insert(std::move(t), gdb::HashJoinAttribute(key)));
  }
  HashTableSample sample;
  sample.build_ns_per_tuple = SecondsSince(start) * 1e9 /
                              static_cast<double>(build_count);

  constexpr size_t kBatch = gdb::join::JoinHashTable::kProbeBatchMax;
  int32_t keys[kBatch];
  uint64_t hashes[kBatch];
  size_t matches = 0;
  start = Clock::now();
  for (size_t base = 0; base < probe_tuples.size(); base += kBatch) {
    const size_t count = std::min(kBatch, probe_tuples.size() - base);
    for (size_t j = 0; j < count; ++j) {
      keys[j] = probe_tuples[base + j].GetInt32(
          outer_schema, static_cast<size_t>(outer_field_));
      hashes[j] = gdb::HashJoinAttribute(keys[j]);
    }
    table.ProbeBatch(keys, hashes, count,
                     [&](size_t, const gdb::storage::Tuple&) { ++matches; });
  }
  sample.probe_ns_per_tuple = SecondsSince(start) * 1e9 /
                              static_cast<double>(probe_tuples.size());
  GAMMA_CHECK_EQ(table.size(), build_count);
  GAMMA_CHECK(matches <= probe_tuples.size() * build_count);
  return sample;
}

}  // namespace perfbench
