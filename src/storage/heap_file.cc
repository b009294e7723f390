#include "storage/heap_file.h"

#include "common/logging.h"

namespace gammadb::storage {

HeapFile::HeapFile(sim::Node* node, const Schema* schema, std::string name)
    : node_(node), schema_(schema), name_(std::move(name)) {
  GAMMA_CHECK(node_->has_disk()) << "heap file requires a disk node";
}

HeapFile::~HeapFile() {
  // Pages are intentionally NOT freed automatically: permanent relations
  // outlive query objects. Temp files are freed explicitly via Free().
}

Status HeapFile::WritePendingPage() {
  // On failure the disk leaves the image with the writer: the page's
  // tuples stay buffered, tuple_count_ already counts them, so the file
  // is consistent and the next Append/FlushAppends retries the write.
  GAMMA_ASSIGN_OR_RETURN(const sim::PageId id,
                         node_->disk().WriteNewPage(writer_->Finish()));
  pages_.push_back(id);
  writer_->Reset();
  return Status::OK();
}

Status HeapFile::Append(const Tuple& tuple) {
  GAMMA_DCHECK(tuple.size() == schema_->tuple_bytes());
  return AppendRecord(tuple.data());
}

Status HeapFile::AppendRecord(const uint8_t* record) {
  if (writer_ == nullptr) {
    writer_ = std::make_unique<PageWriter>(node_->cost().page_bytes,
                                           schema_->tuple_bytes());
  }
  if (writer_->Full()) {
    // A previous full-page write failed; retry before accepting more.
    GAMMA_RETURN_IF_ERROR(WritePendingPage());
  }
  node_->ChargeCpu(node_->cost().cpu_write_tuple_seconds,
                   sim::CostCategory::kWriteTuple);
  writer_->Append(record);
  ++tuple_count_;
  if (writer_->Full()) {
    GAMMA_RETURN_IF_ERROR(WritePendingPage());
  }
  return Status::OK();
}

Status HeapFile::FlushAppends() {
  if (writer_ != nullptr && writer_->count() > 0) {
    GAMMA_RETURN_IF_ERROR(WritePendingPage());
  }
  writer_.reset();
  return Status::OK();
}

void HeapFile::Free() {
  for (sim::PageId id : pages_) node_->disk().FreePage(id);
  pages_.clear();
  tuple_count_ = 0;
  writer_.reset();
}

HeapFile::Scanner::Scanner(const HeapFile* file) : file_(file) {
  GAMMA_CHECK(file_->writer_ == nullptr || file_->writer_->count() == 0)
      << "scan of heap file '" << file_->name_ << "' with unflushed appends";
}

bool HeapFile::Scanner::LoadNextPage() {
  if (!status_.ok()) return false;
  if (next_page_ >= file_->pages_.size()) return false;
  status_ = file_->node_->disk().ReadPageRef(file_->pages_[next_page_],
                                             &page_data_);
  if (!status_.ok()) return false;
  ++next_page_;
  ++pages_read_;
  PageReader reader(page_data_, file_->schema_->tuple_bytes());
  page_tuples_ = reader.count();
  next_slot_ = 0;
  return true;
}

bool HeapFile::Scanner::NextRecord(const uint8_t** out) {
  while (next_slot_ >= page_tuples_) {
    if (!LoadNextPage()) return false;
  }
  PageReader reader(page_data_, file_->schema_->tuple_bytes());
  *out = reader.Record(next_slot_);
  ++next_slot_;
  file_->node_->ChargeCpu(file_->node_->cost().cpu_read_tuple_seconds,
                          sim::CostCategory::kReadTuple);
  return true;
}

bool HeapFile::Scanner::Next(Tuple* out) {
  const uint8_t* record;
  if (!NextRecord(&record)) return false;
  out->Assign(record, file_->schema_->tuple_bytes());
  return true;
}

bool HeapFile::Scanner::NextBlock(TupleBlock* block) {
  block->clear();
  while (next_slot_ >= page_tuples_) {
    if (!LoadNextPage()) return false;
  }
  const uint32_t record_bytes = file_->schema_->tuple_bytes();
  PageReader reader(page_data_, record_bytes);
  while (next_slot_ < page_tuples_ && !block->full()) {
    block->push_back(TupleView{reader.Record(next_slot_), record_bytes});
    ++next_slot_;
  }
  return true;
}

std::vector<Tuple> HeapFile::PeekAll() const {
  std::vector<Tuple> out;
  out.reserve(tuple_count_);
  const uint32_t record_bytes = schema_->tuple_bytes();
  for (sim::PageId id : pages_) {
    PageReader reader(node_->disk().PeekPage(id), record_bytes);
    for (uint16_t i = 0; i < reader.count(); ++i) {
      out.emplace_back(reader.Record(i), record_bytes);
    }
  }
  return out;
}

}  // namespace gammadb::storage
