// Heap files: sequences of fixed-length-record pages on one simulated
// disk (WiSS "structured sequential files").
//
// A heap file is always local to the node that owns the disk it lives
// on; appends buffer into an in-memory page image and flush whole pages
// (per-file output buffering, which is why bucket-forming writes many
// fragment files without paying random-I/O costs — Gamma buffered each
// output file separately).
#ifndef GAMMA_STORAGE_HEAP_FILE_H_
#define GAMMA_STORAGE_HEAP_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/node.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "storage/tuple_block.h"

namespace gammadb::storage {

class HeapFile {
 public:
  /// `node` must own a disk; all I/O and tuple-move CPU is charged to it.
  HeapFile(sim::Node* node, const Schema* schema, std::string name = "");
  ~HeapFile();

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;
  HeapFile(HeapFile&&) = default;
  HeapFile& operator=(HeapFile&&) = default;

  const Schema& schema() const { return *schema_; }
  const std::string& name() const { return name_; }
  sim::Node* node() const { return node_; }

  /// Buffers one tuple (charges tuple-copy CPU); flushes a full page to
  /// disk as a sequential write. Fails (Status::Unavailable) when the
  /// page write exhausts the disk's retry budget; the page's tuples stay
  /// buffered in the writer, so a later Append or FlushAppends retries.
  Status Append(const Tuple& tuple);

  /// Same as Append but takes the serialized record bytes directly
  /// (exactly schema().tuple_bytes() of them) — the zero-copy exchange
  /// drains page views into bucket/overflow files without materializing
  /// an intermediate Tuple. Charges identically to Append.
  Status AppendRecord(const uint8_t* record);

  /// Flushes a trailing partial page, if any. Idempotent. Must be called
  /// before scanning.
  Status FlushAppends();

  size_t tuple_count() const { return tuple_count_; }
  size_t page_count() const { return pages_.size(); }
  /// Total serialized bytes of the stored tuples.
  uint64_t data_bytes() const {
    return static_cast<uint64_t>(tuple_count_) * schema_->tuple_bytes();
  }

  /// Releases all pages back to the disk and empties the file.
  void Free();

  /// Sequential reader. Reading charges page I/O and per-tuple CPU; a
  /// scanner abandoned early never charges for the pages it did not
  /// reach (this is how sort-merge's early merge termination saves I/O
  /// on skewed data).
  class Scanner {
   public:
    explicit Scanner(const HeapFile* file);

    /// Advances to the next record and points `*out` at its bytes in the
    /// disk-resident page image (no copy; valid until the file's pages
    /// are freed). Charges page I/O and per-tuple read CPU. Returns
    /// false at end of file OR on an I/O error — check status() to tell
    /// the two apart.
    bool NextRecord(const uint8_t** out);

    /// NextRecord, copied into `*out`; charges identically.
    bool Next(Tuple* out);

    /// Fills `block` with views of the remaining tuples of the current
    /// page (loading the next page first when it is exhausted), at most
    /// TupleBlock::kCapacity. Charges page I/O only — the per-tuple
    /// read CPU that Next() charges is charged by the CONSUMER as it
    /// processes each view, which keeps the per-tuple charge order
    /// (read, predicate, route, ...) of the scalar path intact.
    ///
    /// Views point DIRECTLY at the simulated disk's page bytes (the
    /// scanner never copies a page), so they stay valid until the
    /// file's pages are freed — not merely until the next NextBlock()
    /// call. The zero-copy exchange relies on this: routed views are
    /// drained by consumers a full phase round after the scan produced
    /// them. Returns false at end of file OR on an I/O error — check
    /// status().
    bool NextBlock(TupleBlock* block);

    /// OK while the scan is healthy; the page-read failure that stopped
    /// the scan otherwise.
    const Status& status() const { return status_; }

    /// Pages actually read so far.
    size_t pages_read() const { return pages_read_; }

   private:
    bool LoadNextPage();

    const HeapFile* file_;
    const uint8_t* page_data_ = nullptr;  // current page, disk-resident
    Status status_;
    size_t next_page_ = 0;
    uint16_t page_tuples_ = 0;
    uint16_t next_slot_ = 0;
    size_t pages_read_ = 0;
  };

  Scanner Scan() const { return Scanner(this); }

  /// Reads every tuple WITHOUT charging any simulated cost. For tests
  /// and result verification only.
  std::vector<Tuple> PeekAll() const;

 private:
  friend class Scanner;

  /// Writes the writer's current page image to a fresh disk page. On
  /// failure the image stays buffered (the retry path of Append /
  /// FlushAppends).
  Status WritePendingPage();

  sim::Node* node_;
  const Schema* schema_;
  std::string name_;
  std::vector<sim::PageId> pages_;
  size_t tuple_count_ = 0;
  std::unique_ptr<PageWriter> writer_;  // pending partial page
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_HEAP_FILE_H_
