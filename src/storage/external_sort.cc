#include "storage/external_sort.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "storage/page.h"

namespace gammadb::storage {

namespace {

int32_t KeyAt(const uint8_t* record, uint32_t key_offset) {
  int32_t key;
  std::memcpy(&key, record + key_offset, sizeof(key));
  return key;
}

/// Cursor over one sorted run: the current record, in place in its
/// disk-resident run page, and its key.
class RunCursor {
 public:
  RunCursor(const HeapFile* file, uint32_t key_offset)
      : scanner_(file->Scan()), key_offset_(key_offset) {
    Advance();
  }

  bool valid() const { return valid_; }
  int32_t key() const { return key_; }
  const uint8_t* record() const { return record_; }
  /// Non-OK when the cursor stopped on a page-read failure rather than
  /// at end of run.
  const Status& status() const { return scanner_.status(); }

  void Advance() {
    valid_ = scanner_.NextRecord(&record_);
    if (valid_) key_ = KeyAt(record_, key_offset_);
  }

 private:
  HeapFile::Scanner scanner_;
  uint32_t key_offset_;
  const uint8_t* record_ = nullptr;
  int32_t key_ = 0;
  bool valid_ = false;
};

/// k-way merge over run cursors; comparator invocations are counted so
/// real comparison work is charged, not an estimate. Yields pointers
/// into the run pages, which the runs' owner frees only after the
/// merge is done.
class MergeStream : public TupleStream {
 public:
  MergeStream(sim::Node* node, uint32_t record_bytes, uint32_t key_offset,
              std::vector<HeapFile>* runs)
      : TupleStream(record_bytes), node_(node) {
    cursors_.reserve(runs->size());
    for (HeapFile& run : *runs) {
      cursors_.emplace_back(&run, key_offset);
      if (!cursors_.back().valid()) {
        if (!cursors_.back().status().ok() && status_.ok()) {
          status_ = cursors_.back().status();
        }
        cursors_.pop_back();
      }
    }
    for (size_t i = 0; i < cursors_.size(); ++i) heap_.push_back(i);
    std::make_heap(heap_.begin(), heap_.end(), Greater{this});
  }

  bool NextRecord(const uint8_t** out) override {
    ChargeCompares();
    if (!status_.ok() || heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Greater{this});
    const size_t idx = heap_.back();
    RunCursor& cursor = cursors_[idx];
    *out = cursor.record();
    cursor.Advance();
    if (cursor.valid()) {
      std::push_heap(heap_.begin(), heap_.end(), Greater{this});
    } else {
      heap_.pop_back();
      if (!cursor.status().ok()) status_ = cursor.status();
    }
    ChargeCompares();
    return true;
  }

  Status status() const override { return status_; }

 private:
  /// Min-heap order on the cursors' current keys, counting invocations.
  struct Greater {
    MergeStream* self;
    bool operator()(size_t a, size_t b) const {
      ++self->compares_;
      return self->cursors_[a].key() > self->cursors_[b].key();
    }
  };

  void ChargeCompares() {
    if (compares_ > 0) {
      node_->ChargeCpu(static_cast<double>(compares_) *
                           node_->cost().cpu_sort_compare_seconds,
                       sim::CostCategory::kSortCompare);
      compares_ = 0;
    }
  }

  sim::Node* node_;
  std::vector<RunCursor> cursors_;
  std::vector<size_t> heap_;
  Status status_;
  size_t compares_ = 0;
};

/// Stream over a fully in-memory sort: the records stay in the arena
/// the stream owns and are yielded in entry order.
class VectorStream : public TupleStream {
 public:
  VectorStream(uint32_t record_bytes, std::vector<uint8_t> arena,
               std::vector<ExternalSort::SortEntry> entries)
      : TupleStream(record_bytes),
        arena_(std::move(arena)),
        entries_(std::move(entries)) {}

  bool NextRecord(const uint8_t** out) override {
    if (next_ >= entries_.size()) return false;
    *out = arena_.data() +
           static_cast<size_t>(entries_[next_++].slot) * record_bytes();
    return true;
  }

 private:
  std::vector<uint8_t> arena_;
  std::vector<ExternalSort::SortEntry> entries_;
  size_t next_ = 0;
};

}  // namespace

ExternalSort::ExternalSort(sim::Node* node, const Schema* schema,
                           int key_field, uint32_t memory_pages)
    : node_(node),
      schema_(schema),
      memory_pages_(std::max(3u, memory_pages)),
      record_bytes_(schema->tuple_bytes()) {
  GAMMA_CHECK(key_field >= 0 &&
              static_cast<size_t>(key_field) < schema->num_fields());
  GAMMA_CHECK(schema->field(static_cast<size_t>(key_field)).type ==
              FieldType::kInt32)
      << "sort key must be an int32 field";
  key_offset_ = schema->offset(static_cast<size_t>(key_field));
  buffer_capacity_tuples_ =
      static_cast<size_t>(memory_pages_) *
      PageCapacity(node->cost().page_bytes, record_bytes_);
  GAMMA_CHECK_LE(buffer_capacity_tuples_, size_t{UINT32_MAX});
  // Reserved, not filled: the arena's pages are touched only as records
  // arrive.
  arena_.reserve(buffer_capacity_tuples_ * record_bytes_);
  entries_.reserve(buffer_capacity_tuples_);
}

ExternalSort::~ExternalSort() {
  for (HeapFile& run : runs_) run.Free();
}

Status ExternalSort::AddRecord(const uint8_t* record) {
  GAMMA_CHECK(!finished_);
  entries_.push_back(SortEntry{KeyAt(record, key_offset_),
                               static_cast<uint32_t>(entries_.size())});
  arena_.insert(arena_.end(), record, record + record_bytes_);
  ++tuple_count_;
  if (entries_.size() >= buffer_capacity_tuples_) {
    GAMMA_RETURN_IF_ERROR(SpillRun());
  }
  return Status::OK();
}

Status ExternalSort::Add(const Tuple& tuple) {
  GAMMA_DCHECK(tuple.size() == record_bytes_);
  return AddRecord(tuple.data());
}

Status ExternalSort::AddFile(const HeapFile& file) {
  // Block-granular ingest: the per-tuple read CPU the scalar scan
  // charged is charged here per view (same order, including around
  // mid-block spills), and each record is copied ONCE — page image
  // straight into the sort arena.
  auto scanner = file.Scan();
  TupleBlock block;
  while (scanner.NextBlock(&block)) {
    for (size_t i = 0; i < block.size(); ++i) {
      node_->ChargeCpu(node_->cost().cpu_read_tuple_seconds,
                       sim::CostCategory::kReadTuple);
      GAMMA_RETURN_IF_ERROR(AddRecord(block.view(i).data));
    }
  }
  return scanner.status();
}

void ExternalSort::SortBuffer() {
  // std::sort's control flow depends only on comparison outcomes, so
  // sorting (key, slot) entries with this comparator yields exactly the
  // permutation — ties included — and the compare count that sorting
  // the records themselves would.
  size_t compares = 0;
  std::sort(entries_.begin(), entries_.end(),
            [&compares](const SortEntry& a, const SortEntry& b) {
              ++compares;
              return a.key < b.key;
            });
  node_->ChargeCpu(
      static_cast<double>(compares) * node_->cost().cpu_sort_compare_seconds,
      sim::CostCategory::kSortCompare);
}

Status ExternalSort::SpillRun() {
  if (entries_.empty()) return Status::OK();
  SortBuffer();
  HeapFile run(node_, schema_, "sort-run");
  Status st;
  for (const SortEntry& e : entries_) {
    st = run.AppendRecord(arena_.data() +
                          static_cast<size_t>(e.slot) * record_bytes_);
    if (!st.ok()) break;
  }
  if (st.ok()) st = run.FlushAppends();
  if (!st.ok()) {
    run.Free();
    return st;
  }
  runs_.push_back(std::move(run));
  entries_.clear();
  arena_.clear();
  return Status::OK();
}

Status ExternalSort::MergeGroupInto(std::vector<HeapFile>&& group,
                                    HeapFile* out) {
  MergeStream merge(node_, record_bytes_, key_offset_, &group);
  const uint8_t* record;
  Status st;
  while (merge.NextRecord(&record)) {
    st = out->AppendRecord(record);
    if (!st.ok()) break;
  }
  if (st.ok()) st = merge.status();
  if (st.ok()) st = out->FlushAppends();
  if (!st.ok()) {
    // Put the inputs back so the destructor frees them; the partial
    // output is freed by the caller.
    for (HeapFile& run : group) runs_.push_back(std::move(run));
    return st;
  }
  for (HeapFile& run : group) run.Free();
  return Status::OK();
}

Status ExternalSort::FinishInput() {
  GAMMA_CHECK(!finished_);
  finished_ = true;
  if (runs_.empty()) {
    // Fits in memory: sort in place, stream directly.
    SortBuffer();
    return Status::OK();
  }
  GAMMA_RETURN_IF_ERROR(SpillRun());  // tail
  const size_t fan_in = static_cast<size_t>(memory_pages_ - 1);
  // Intermediate merges until one streamed merge suffices. Merge the
  // SMALLEST runs first and only as many as needed (the textbook
  // optimal merge pattern): the first step reduces the run count to a
  // multiple that later full-width steps bring exactly to fan_in.
  while (runs_.size() > fan_in) {
    std::sort(runs_.begin(), runs_.end(),
              [](const HeapFile& a, const HeapFile& b) {
                return a.tuple_count() < b.tuple_count();
              });
    // Merging k runs removes k-1 from the count; the first (smallest)
    // step removes just enough for the remainder to divide cleanly.
    const size_t excess = runs_.size() - fan_in;
    const size_t k = std::min(fan_in, excess + 1);
    std::vector<HeapFile> group;
    group.reserve(k);
    for (size_t j = 0; j < k; ++j) group.push_back(std::move(runs_[j]));
    runs_.erase(runs_.begin(), runs_.begin() + static_cast<long>(k));
    intermediate_merged_tuples_ += [&group] {
      size_t total = 0;
      for (const HeapFile& r : group) total += r.tuple_count();
      return total;
    }();
    HeapFile merged(node_, schema_, "sort-run");
    const Status st = MergeGroupInto(std::move(group), &merged);
    if (!st.ok()) {
      merged.Free();
      return st;
    }
    runs_.push_back(std::move(merged));
  }
  return Status::OK();
}

int ExternalSort::intermediate_passes() const {
  if (tuple_count_ == 0 || intermediate_merged_tuples_ == 0) return 0;
  // Effective full passes over the data performed by intermediate
  // merging, rounded up (the figure behind the paper's sort-merge
  // staircase).
  return static_cast<int>(
      (intermediate_merged_tuples_ + tuple_count_ - 1) / tuple_count_);
}

std::unique_ptr<TupleStream> ExternalSort::OpenStream() {
  GAMMA_CHECK(finished_) << "FinishInput() not called";
  GAMMA_CHECK(!streamed_) << "OpenStream() may only be called once";
  streamed_ = true;
  if (runs_.empty()) {
    return std::make_unique<VectorStream>(
        record_bytes_, std::move(arena_), std::move(entries_));
  }
  return std::make_unique<MergeStream>(node_, record_bytes_, key_offset_,
                                       &runs_);
}

}  // namespace gammadb::storage
