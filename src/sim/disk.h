// Simulated disk drive: a page store with I/O cost accounting.
//
// Stands in for the 333 MB Fujitsu 8" drives of the paper's hardware.
// Pages are real 8 KB byte arrays (the storage layer serializes real
// tuples into them); only the *time* is simulated. Every page I/O is
// charged as a sequential access: the joins read relations, buckets and
// overflow files only by WiSS scans with read-ahead, and write them
// through per-file output buffers.
#ifndef GAMMA_SIM_DISK_H_
#define GAMMA_SIM_DISK_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "sim/cost_model.h"

namespace gammadb::sim {

class Node;

using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = UINT32_MAX;

class Disk {
 public:
  /// Attempts per page I/O before a transient fault becomes a hard
  /// Status::Unavailable error (sim/fault.h). Every attempt, failed or
  /// not, charges full device + issue-CPU time.
  static constexpr int kMaxIoAttempts = 4;

  /// The disk charges all I/O to `owner` (in a shared-nothing machine a
  /// disk is only ever accessed by its own processor).
  Disk(Node* owner, const CostModel* cost);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// Releases a page: its memory goes back to the host allocator (so a
  /// dropped temp file pins no host memory) and its id to the free pool.
  /// Freeing is free (Gamma temp files are dropped by catalog
  /// operations, not per-page I/O).
  void FreePage(PageId id);

  /// Charges one page write to the owning node and stores `*image` (a
  /// buffer of `cost().page_bytes` bytes) as a new page, returning its
  /// id. The disk ADOPTS the buffer instead of copying it: on success
  /// `*image` is left empty. Fails with Status::Unavailable when an
  /// armed fault plan exhausts the retry budget; `*image` is then left
  /// untouched, so the writer still holds the page and can retry.
  Result<PageId> WriteNewPage(std::unique_ptr<uint8_t[]>* image);

  /// Charges one page read to the owning node and returns a direct
  /// pointer to the page bytes (no copy). Pages are individually
  /// heap-allocated, so the pointer stays valid until the page is freed;
  /// callers must not hold it past a FreePage of the file it belongs to.
  /// Fails with Status::Unavailable when an armed fault plan exhausts
  /// the retry budget.
  Status ReadPageRef(PageId id, const uint8_t** out) const;

  /// Direct, read-only view of page bytes WITHOUT charging I/O. Used by
  /// tests and by code paths that re-examine a page already charged.
  const uint8_t* PeekPage(PageId id) const;

  /// Number of live (allocated, not freed) pages.
  size_t live_pages() const { return pages_.size() - free_list_.size(); }

  const CostModel& cost() const { return *cost_; }

 private:
  /// Runs the attempt/retry loop for one page I/O: charges each attempt,
  /// consults the armed fault injector, and counts faults and retries.
  Status RunIoAttempts(bool is_write) const;

  Node* owner_;
  const CostModel* cost_;
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  std::vector<PageId> free_list_;
};

}  // namespace gammadb::sim

#endif  // GAMMA_SIM_DISK_H_
