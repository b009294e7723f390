// 8 KB page codec for fixed-length records.
//
// Layout: a 4-byte header (uint16 record count, 2 bytes reserved)
// followed by densely packed fixed-length records. All heap files, temp
// files and sort runs use this layout.
#ifndef GAMMA_STORAGE_PAGE_H_
#define GAMMA_STORAGE_PAGE_H_

#include <cstdint>
#include <cstring>
#include <memory>

#include "common/logging.h"

namespace gammadb::storage {

inline constexpr uint32_t kPageHeaderBytes = 4;

/// Records of `record_bytes` that fit on a page of `page_bytes`.
inline uint32_t PageCapacity(uint32_t page_bytes, uint32_t record_bytes) {
  GAMMA_CHECK_GT(record_bytes, 0u);
  GAMMA_CHECK_GT(page_bytes, kPageHeaderBytes + record_bytes)
      << "record larger than page";
  return (page_bytes - kPageHeaderBytes) / record_bytes;
}

/// An in-memory page image being filled with records before it is
/// written to a simulated disk. The image is never zero-filled up
/// front: Finish() zeroes only the unused tail, and the disk adopts the
/// finished buffer (sim::Disk::WriteNewPage) instead of copying it.
class PageWriter {
 public:
  PageWriter(uint32_t page_bytes, uint32_t record_bytes)
      : page_bytes_(page_bytes),
        record_bytes_(record_bytes),
        capacity_(PageCapacity(page_bytes, record_bytes)),
        buf_(std::make_unique_for_overwrite<uint8_t[]>(page_bytes)) {}

  bool Full() const { return count_ >= capacity_; }
  uint16_t count() const { return count_; }
  uint32_t capacity() const { return capacity_; }

  /// Appends one record; requires !Full().
  void Append(const uint8_t* record) {
    GAMMA_DCHECK(!Full());
    std::memcpy(buf_.get() + kPageHeaderBytes +
                    static_cast<size_t>(count_) * record_bytes_,
                record, record_bytes_);
    ++count_;
  }

  /// Finalizes the header, zeroes the bytes past the last record and
  /// returns the page image. The caller may move the buffer out (the
  /// disk adopts it); Reset() then allocates a fresh one. Idempotent
  /// until the next Append, so a failed write can finish it again.
  std::unique_ptr<uint8_t[]>* Finish() {
    uint8_t* page = buf_.get();
    std::memcpy(page, &count_, sizeof(count_));
    const size_t used =
        kPageHeaderBytes + static_cast<size_t>(count_) * record_bytes_;
    std::memset(page + sizeof(count_), 0, kPageHeaderBytes - sizeof(count_));
    std::memset(page + used, 0, page_bytes_ - used);
    return &buf_;
  }

  /// Starts an empty page, in a fresh buffer if the last one was taken.
  void Reset() {
    count_ = 0;
    if (buf_ == nullptr) {
      buf_ = std::make_unique_for_overwrite<uint8_t[]>(page_bytes_);
    }
  }

 private:
  uint32_t page_bytes_;
  uint32_t record_bytes_;
  uint32_t capacity_;
  uint16_t count_ = 0;
  std::unique_ptr<uint8_t[]> buf_;
};

/// Read-side view over a page image.
class PageReader {
 public:
  PageReader(const uint8_t* page, uint32_t record_bytes)
      : page_(page), record_bytes_(record_bytes) {
    std::memcpy(&count_, page, sizeof(count_));
  }

  uint16_t count() const { return count_; }

  const uint8_t* Record(uint16_t i) const {
    GAMMA_DCHECK(i < count_);
    return page_ + kPageHeaderBytes + static_cast<size_t>(i) * record_bytes_;
  }

 private:
  const uint8_t* page_;
  uint32_t record_bytes_;
  uint16_t count_;
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_PAGE_H_
