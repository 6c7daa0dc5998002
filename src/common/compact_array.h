#ifndef LAZYREP_COMMON_COMPACT_ARRAY_H_
#define LAZYREP_COMMON_COMPACT_ARRAY_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <ranges>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace lazyrep {

/// Read-only array built once and then only iterated: one block holding
/// the length and the elements, so the object itself is a single pointer
/// (8 bytes where a std::vector takes 24). Empty arrays allocate nothing.
/// Meant for the many small arrays a long-lived log keeps per entry.
///
/// The block is either owned (a heap block the destructor frees) or
/// borrowed: placed by `BorrowCopy` in storage that someone else owns —
/// a log's arena, say — and outlives the array. Both read alike; copying
/// either makes an owned heap copy, and a borrowed block is never freed.
template <typename T>
class CompactArray {
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  using value_type = T;
  using const_iterator = const T*;
  using iterator = const_iterator;

  /// Alignment a block needs: that of its length word and of T.
  static constexpr size_t kBlockAlign =
      std::max(alignof(uint32_t), alignof(T));

  CompactArray() = default;
  CompactArray(std::initializer_list<T> values)
      : CompactArray(values.begin(), values.end()) {}
  // Implicit, like the initializer list: callers assemble in a vector.
  CompactArray(const std::vector<T>& values)  // NOLINT
      : CompactArray(values.begin(), values.end()) {}
  template <std::forward_iterator It>
  CompactArray(It first, It last) {
    const size_t n = static_cast<size_t>(std::ranges::distance(first, last));
    if (n == 0) return;
    LAZYREP_CHECK_LT(n, size_t{kBorrowed})
        << "CompactArray: " << n << " elements";
    block_ = static_cast<char*>(::operator new(BlockBytes(n)));
    Fill(block_, static_cast<uint32_t>(n), first, last);
  }
  CompactArray(const CompactArray& other)
      : CompactArray(other.begin(), other.end()) {}
  CompactArray(CompactArray&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  CompactArray& operator=(CompactArray other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~CompactArray() {
    if (block_ != nullptr && (LengthWord() & kBorrowed) == 0) {
      ::operator delete(block_);
    }
  }

  const T* begin() const {
    return block_ == nullptr
               ? nullptr
               : std::launder(reinterpret_cast<const T*>(block_ + kData));
  }
  const T* end() const { return begin() + size(); }
  size_t size() const {
    return block_ == nullptr ? 0 : LengthWord() & ~kBorrowed;
  }
  bool empty() const { return block_ == nullptr; }

  /// Bytes `BorrowCopy` writes: the whole block, 0 when empty.
  size_t block_bytes() const { return empty() ? 0 : BlockBytes(size()); }

  /// Copies this array's block into `storage` — `block_bytes()` bytes
  /// aligned to `kBlockAlign`; may be null when empty — and returns an
  /// array borrowing the copy. `storage` must outlive the returned array
  /// and every array moved from it.
  CompactArray BorrowCopy(void* storage) const {
    CompactArray out;
    if (empty()) return out;
    out.block_ = static_cast<char*>(storage);
    Fill(out.block_, static_cast<uint32_t>(size()) | kBorrowed, begin(),
         end());
    return out;
  }

  friend bool operator==(const CompactArray& a, const CompactArray& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // The block: the uint32 length word, then the elements at their
  // alignment. The word's top bit marks a borrowed block, so a length
  // must stay below 2^31.
  static constexpr size_t kData = std::max(sizeof(uint32_t), alignof(T));
  static constexpr uint32_t kBorrowed = uint32_t{1} << 31;

  static size_t BlockBytes(size_t n) { return kData + n * sizeof(T); }

  // Writes a block: its length word (length and flag), then the elements.
  template <typename It>
  static void Fill(char* block, uint32_t word, It first, It last) {
    ::new (block) uint32_t(word);
    std::uninitialized_copy(first, last, reinterpret_cast<T*>(block + kData));
  }

  uint32_t LengthWord() const {
    return *std::launder(reinterpret_cast<const uint32_t*>(block_));
  }

  char* block_ = nullptr;
};

}  // namespace lazyrep

#endif  // LAZYREP_COMMON_COMPACT_ARRAY_H_
