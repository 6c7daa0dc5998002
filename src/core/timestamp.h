#ifndef LAZYREP_CORE_TIMESTAMP_H_
#define LAZYREP_CORE_TIMESTAMP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/types.h"

namespace lazyrep::core {

/// A tuple `(s_i, LTS_i)` — Definition 3.1. `lts` counts the primary
/// subtransactions committed at the site.
struct TsTuple {
  SiteId site = kInvalidSite;
  int64_t lts = 0;

  friend bool operator==(const TsTuple&, const TsTuple&) = default;
};

/// Small vector of timestamp tuples: inline storage for up to 4 tuples
/// (a DAG(T) timestamp holds one tuple per tree ancestor, so on the
/// paper's 9-site topologies most never leave the inline buffer),
/// spilling to the heap beyond that. Keeps `ExtendedWith` — executed on
/// every secondary commit — allocation-free on the common path.
class TsTupleVec {
 public:
  using value_type = TsTuple;
  using const_iterator = const TsTuple*;

  TsTupleVec() = default;
  TsTupleVec(std::initializer_list<TsTuple> init) {
    for (const TsTuple& t : init) push_back(t);
  }
  TsTupleVec(const TsTupleVec&) = default;
  TsTupleVec& operator=(const TsTupleVec&) = default;
  TsTupleVec(TsTupleVec&& other) noexcept
      : size_(other.size_), heap_(std::move(other.heap_)) {
    std::copy(other.inline_, other.inline_ + kInline, inline_);
    other.size_ = 0;
  }
  TsTupleVec& operator=(TsTupleVec&& other) noexcept {
    size_ = other.size_;
    heap_ = std::move(other.heap_);
    std::copy(other.inline_, other.inline_ + kInline, inline_);
    other.size_ = 0;
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const TsTuple* data() const {
    return size_ <= kInline ? inline_ : heap_.data();
  }
  TsTuple* data() { return size_ <= kInline ? inline_ : heap_.data(); }
  const TsTuple& operator[](size_t i) const { return data()[i]; }
  TsTuple& operator[](size_t i) { return data()[i]; }
  const TsTuple& back() const { return data()[size_ - 1]; }
  TsTuple& back() { return data()[size_ - 1]; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  void push_back(const TsTuple& t) {
    if (size_ < kInline) {
      inline_[size_++] = t;
      return;
    }
    // Crossing (or already past) the inline->heap boundary: the heap
    // vector takes over the full contents.
    if (size_ == kInline) heap_.assign(inline_, inline_ + kInline);
    heap_.push_back(t);
    ++size_;
  }

  friend bool operator==(const TsTupleVec& a, const TsTupleVec& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const TsTupleVec& a,
                         const std::vector<TsTuple>& b) {
    return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }
  friend bool operator==(const std::vector<TsTuple>& a,
                         const TsTupleVec& b) {
    return b == a;
  }

 private:
  static constexpr size_t kInline = 4;

  size_t size_ = 0;
  TsTuple inline_[kInline];
  std::vector<TsTuple> heap_;  // Holds everything once size_ > kInline.
};

/// A DAG(T) timestamp — Definition 3.2 extended with the epoch number of
/// §3.3.
///
/// The timestamp is a vector of tuples, at most one per site, kept sorted
/// by ascending site id; the last tuple always belongs to the owning site.
/// Comparison (Definition 3.3, implemented by `Compare`):
///
///   * different epochs: the smaller epoch is smaller;
///   * one vector a proper prefix of the other: the prefix is smaller;
///   * otherwise find the first position where the tuples differ:
///     the timestamp whose tuple has the *larger* site id is smaller
///     (reverse site order!); at equal sites the smaller counter wins.
class Timestamp {
 public:
  Timestamp() = default;

  /// Initial site timestamp `(s, 0)` at epoch 0.
  static Timestamp Initial(SiteId site) {
    Timestamp ts;
    ts.tuples_.push_back({site, 0});
    return ts;
  }

  int64_t epoch() const { return epoch_; }
  void set_epoch(int64_t epoch) { epoch_ = epoch; }

  const TsTupleVec& tuples() const { return tuples_; }
  bool empty() const { return tuples_.empty(); }

  /// The owning site's tuple (the last one).
  const TsTuple& OwnTuple() const;

  /// Increments the owning site's counter — primary-commit step 1
  /// (§3.2.2).
  void BumpOwnLts();

  /// Returns `TS(T) ⊕ (site, lts)` at epoch `epoch` — the secondary-commit
  /// rule (§3.2.3): the committing subtransaction's timestamp concatenated
  /// with the local site tuple. In a DAG all tuples of `TS(T)` belong to
  /// ancestors of `site`, so plain concatenation keeps the vector sorted;
  /// this is CHECKed.
  Timestamp ExtendedWith(SiteId site, int64_t lts, int64_t epoch) const;

  /// The tuples from position `from` on, at this timestamp's epoch: what
  /// a channel ships once its receiver already holds the first `from`
  /// tuples (see `Rebuild`). CHECKs `from <= tuples().size()`.
  Timestamp Suffix(size_t from) const;

  /// How many leading tuples `a` and `b` share (epochs are ignored).
  static size_t SharedPrefix(const Timestamp& a, const Timestamp& b);

  /// Inverse of `Suffix` on a FIFO channel: the first `shared` tuples of
  /// `prev` (the channel's previous timestamp) followed by `suffix`'s
  /// tuples, at `suffix`'s epoch. CHECKs that `shared <= prev`'s size and
  /// that the joined vector stays sorted by site.
  static Timestamp Rebuild(const Timestamp& prev, size_t shared,
                           const Timestamp& suffix);

  /// Three-way comparison per Definition 3.3 (+ epoch dominance).
  /// Returns <0, 0, >0.
  static int Compare(const Timestamp& a, const Timestamp& b);

  friend bool operator==(const Timestamp& a, const Timestamp& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(const Timestamp& a, const Timestamp& b) {
    return Compare(a, b) < 0;
  }
  friend bool operator<=(const Timestamp& a, const Timestamp& b) {
    return Compare(a, b) <= 0;
  }
  friend bool operator>(const Timestamp& a, const Timestamp& b) {
    return Compare(a, b) > 0;
  }

  /// e.g. "e0:(s1,1)(s2,3)".
  std::string ToString() const;

 private:
  int64_t epoch_ = 0;
  TsTupleVec tuples_;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_TIMESTAMP_H_
