#ifndef LAZYREP_COMMON_FLAT_MAP_H_
#define LAZYREP_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/compact_array.h"

namespace lazyrep {

/// Read-only sorted-array map: one contiguous allocation instead of a
/// tree node per entry. Built once from a range or an initializer list
/// and then only looked up and iterated, in ascending key order, like a
/// const `std::map`. As with `std::map`'s range constructor, the first
/// of several entries with the same key wins.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using const_iterator = const value_type*;
  using iterator = const_iterator;

  FlatMap() = default;
  FlatMap(std::initializer_list<value_type> entries)
      : FlatMap(entries.begin(), entries.end()) {}
  template <std::forward_iterator It>
  FlatMap(It first, It last) {
    // Strictly ascending input (a std::map's, say) is already normal.
    if (std::adjacent_find(first, last, [](const auto& a, const auto& b) {
          return !(a.first < b.first);
        }) == last) {
      entries_ = CompactArray<value_type>(first, last);
      return;
    }
    std::vector<value_type> sorted(first, last);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const value_type& a, const value_type& b) {
                       return a.first < b.first;
                     });
    sorted.erase(std::unique(sorted.begin(), sorted.end(),
                             [](const value_type& a, const value_type& b) {
                               return a.first == b.first;
                             }),
                 sorted.end());
    entries_ = CompactArray<value_type>(sorted.begin(), sorted.end());
  }

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const_iterator find(const K& key) const {
    const_iterator it = std::lower_bound(
        begin(), end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
    return it != end() && it->first == key ? it : end();
  }
  size_t count(const K& key) const { return find(key) == end() ? 0 : 1; }
  const V& at(const K& key) const {
    const_iterator it = find(key);
    LAZYREP_CHECK(it != end()) << "FlatMap::at: missing key";
    return it->second;
  }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

 private:
  CompactArray<value_type> entries_;
};

}  // namespace lazyrep

#endif  // LAZYREP_COMMON_FLAT_MAP_H_
