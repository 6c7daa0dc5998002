#ifndef LAZYREP_COMMON_COMPACT_ARRAY_H_
#define LAZYREP_COMMON_COMPACT_ARRAY_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace lazyrep {

/// Read-only array built once and then only iterated: one heap block
/// holding the length and the elements, so the object itself is a single
/// pointer (8 bytes where a std::vector takes 24). Empty arrays allocate
/// nothing. Meant for the many small arrays a long-lived log keeps per
/// entry.
template <typename T>
class CompactArray {
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

 public:
  using value_type = T;
  using const_iterator = const T*;
  using iterator = const_iterator;

  CompactArray() = default;
  CompactArray(std::initializer_list<T> values)
      : CompactArray(values.begin(), values.end()) {}
  // Implicit, like the initializer list: callers assemble in a vector.
  CompactArray(const std::vector<T>& values)  // NOLINT
      : CompactArray(values.begin(), values.end()) {}
  template <std::forward_iterator It>
  CompactArray(It first, It last) {
    const size_t n = static_cast<size_t>(std::distance(first, last));
    if (n == 0) return;
    block_ = static_cast<char*>(::operator new(kData + n * sizeof(T)));
    ::new (block_) uint32_t(static_cast<uint32_t>(n));
    std::uninitialized_copy(first, last, reinterpret_cast<T*>(block_ + kData));
  }
  CompactArray(const CompactArray& other)
      : CompactArray(other.begin(), other.end()) {}
  CompactArray(CompactArray&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  CompactArray& operator=(CompactArray other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~CompactArray() { ::operator delete(block_); }

  const T* begin() const {
    return block_ == nullptr
               ? nullptr
               : std::launder(reinterpret_cast<const T*>(block_ + kData));
  }
  const T* end() const { return begin() + size(); }
  size_t size() const {
    return block_ == nullptr
               ? 0
               : *std::launder(reinterpret_cast<const uint32_t*>(block_));
  }
  bool empty() const { return block_ == nullptr; }

  friend bool operator==(const CompactArray& a, const CompactArray& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  // The block: the uint32 length, then the elements at their alignment.
  static constexpr size_t kData = std::max(sizeof(uint32_t), alignof(T));

  char* block_ = nullptr;
};

}  // namespace lazyrep

#endif  // LAZYREP_COMMON_COMPACT_ARRAY_H_
