// A serialized fixed-length tuple. The byte layout is defined by a
// Schema; Tuple is just an owning byte buffer that flows through scans,
// split tables, network exchanges and hash tables.
//
// Small-buffer optimized: tuples up to kInlineBytes (sized for the
// 208-byte Wisconsin tuple) live inside the Tuple object itself, so the
// scan -> split -> exchange -> insert hot path never touches the heap.
// Larger tuples (e.g. 416-byte join results) fall back to one heap
// allocation. Storage location is a pure function of size(), which is
// fixed at construction.
#ifndef GAMMA_STORAGE_TUPLE_H_
#define GAMMA_STORAGE_TUPLE_H_

#include <cstdint>
#include <cstring>
#include <string_view>

#include "storage/schema.h"

namespace gammadb::storage {

class Tuple {
 public:
  /// Largest tuple stored inline (no heap allocation).
  static constexpr uint32_t kInlineBytes = 208;

  Tuple() : size_(0) {}
  explicit Tuple(size_t bytes) : size_(static_cast<uint32_t>(bytes)) {
    uint8_t* p = Allocate();
    std::memset(p, 0, size_);
  }
  Tuple(const uint8_t* bytes, size_t n) : size_(static_cast<uint32_t>(n)) {
    std::memcpy(Allocate(), bytes, size_);
  }

  /// Replaces the contents with a copy of `bytes`. The block-granular
  /// exchange path uses this to materialize a scanned tuple directly
  /// inside its lane slot — one copy from the page image, with no
  /// intermediate Tuple object or move.
  void Assign(const uint8_t* bytes, size_t n) {
    Release();
    size_ = static_cast<uint32_t>(n);
    std::memcpy(Allocate(), bytes, size_);
  }

  Tuple(const Tuple& other) : size_(other.size_) {
    std::memcpy(Allocate(), other.data(), size_);
  }
  Tuple(Tuple&& other) noexcept : size_(other.size_) {
    if (size_ <= kInlineBytes) {
      std::memcpy(inline_, other.inline_, size_);
    } else {
      heap_ = other.heap_;
      other.size_ = 0;  // other must not free the stolen buffer
    }
  }
  Tuple& operator=(const Tuple& other) {
    if (this != &other) {
      Release();
      size_ = other.size_;
      std::memcpy(Allocate(), other.data(), size_);
    }
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release();
      size_ = other.size_;
      if (size_ <= kInlineBytes) {
        std::memcpy(inline_, other.inline_, size_);
      } else {
        heap_ = other.heap_;
        other.size_ = 0;
      }
    }
    return *this;
  }
  ~Tuple() { Release(); }

  uint8_t* data() { return size_ <= kInlineBytes ? inline_ : heap_; }
  const uint8_t* data() const {
    return size_ <= kInlineBytes ? inline_ : heap_;
  }
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Schema-mediated convenience accessors.
  int32_t GetInt32(const Schema& s, size_t field) const {
    return s.GetInt32(data(), field);
  }
  void SetInt32(const Schema& s, size_t field, int32_t v) {
    s.SetInt32(data(), field, v);
  }
  std::string_view GetChars(const Schema& s, size_t field) const {
    return s.GetChars(data(), field);
  }
  void SetChars(const Schema& s, size_t field, std::string_view v) {
    s.SetChars(data(), field, v);
  }

  bool operator==(const Tuple& other) const {
    return size_ == other.size_ &&
           std::memcmp(data(), other.data(), size_) == 0;
  }

  /// Byte-wise concatenation (join result composition).
  static Tuple Concat(const Tuple& a, const Tuple& b) {
    return Concat(a, b.data(), b.size());
  }

  /// Concatenation with a raw serialized record on the right — the
  /// zero-copy probe path composes results directly from the page view
  /// without materializing the probe tuple first.
  static Tuple Concat(const Tuple& a, const uint8_t* b, uint32_t b_size) {
    return Concat(a.data(), a.size_, b, b_size);
  }

  /// Concatenation of two raw serialized records (the merge join
  /// composes results straight from its two record pointers).
  static Tuple Concat(const uint8_t* a, uint32_t a_size, const uint8_t* b,
                      uint32_t b_size) {
    Tuple out;
    out.size_ = a_size + b_size;
    uint8_t* p = out.Allocate();
    std::memcpy(p, a, a_size);
    std::memcpy(p + a_size, b, b_size);
    return out;
  }

 private:
  /// Provides storage for size_ bytes (uninitialized) and returns it.
  uint8_t* Allocate() {
    if (size_ <= kInlineBytes) return inline_;
    heap_ = new uint8_t[size_];
    return heap_;
  }
  void Release() {
    if (size_ > kInlineBytes) delete[] heap_;
  }

  uint32_t size_;
  union {
    uint8_t inline_[kInlineBytes];
    uint8_t* heap_;
  };
};

}  // namespace gammadb::storage

#endif  // GAMMA_STORAGE_TUPLE_H_
