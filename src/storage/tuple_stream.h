// Pull-based record stream interface (sorted-run merges, in-memory
// sorts).
#ifndef GAMMA_STORAGE_TUPLE_STREAM_H_
#define GAMMA_STORAGE_TUPLE_STREAM_H_

#include <cstdint>

#include "common/status.h"
#include "storage/tuple.h"

namespace gammadb::storage {

class TupleStream {
 public:
  explicit TupleStream(uint32_t record_bytes) : record_bytes_(record_bytes) {}
  virtual ~TupleStream() = default;

  /// Points `*out` at the next serialized record (record_bytes() long)
  /// without copying it. The pointer stays valid for the life of the
  /// stream, so a consumer may hold several (a merge join's duplicate
  /// group). Returns false at end of stream or on error — check
  /// status() to tell the two apart.
  virtual bool NextRecord(const uint8_t** out) = 0;

  /// NextRecord, copied into `*out`.
  bool Next(Tuple* out) {
    const uint8_t* record;
    if (!NextRecord(&record)) return false;
    out->Assign(record, record_bytes_);
    return true;
  }

  uint32_t record_bytes() const { return record_bytes_; }

  /// OK unless the stream stopped on an I/O failure (e.g. a sorted-run
  /// page read exhausting its fault-injection retry budget).
  virtual Status status() const { return Status::OK(); }

 private:
  uint32_t record_bytes_;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_TUPLE_STREAM_H_
