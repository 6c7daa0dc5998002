#ifndef LAZYREP_COMMON_TYPES_H_
#define LAZYREP_COMMON_TYPES_H_

#include <cstdint>

namespace lazyrep {

/// Site identifier. Sites are numbered 0..m-1; this numbering is also the
/// total order `s_0 < s_1 < ... < s_{m-1}` used by the protocols
/// (consistent with a topological order of the DAG part of the copy graph,
/// as in the paper's data-distribution scheme §5.2).
using SiteId = int32_t;

/// Logical data item identifier (0..n-1). Each item has exactly one
/// primary copy and zero or more secondary copies (replicas).
using ItemId = int32_t;

/// Value stored in an item. Writes in this repo install distinct values so
/// that replica-convergence checks can compare copies exactly: every
/// written value is `ProvenanceValue(writer, op_index)`. The wire codes a
/// written value as its difference from `ProvenanceValue(origin, 0)` of
/// the message carrying it, so such a value costs one byte (core/wire.h).
using Value = int64_t;

/// Globally unique transaction identifier, assigned by the originating
/// site: (site index, per-site sequence). Secondary subtransactions carry
/// the id of their origin (primary) transaction.
struct GlobalTxnId {
  SiteId origin_site = -1;
  int64_t seq = -1;

  friend bool operator==(const GlobalTxnId&, const GlobalTxnId&) = default;
  friend auto operator<=>(const GlobalTxnId&, const GlobalTxnId&) = default;
};

/// The value a committed transaction installs with its `op_index`-th
/// operation: `(site+1)<<48 | (seq+1)<<8 | op`, unique per (txn, op) so
/// replica-convergence checks compare exact provenance. The +1 offsets
/// keep every written value distinct from the initial 0. The arithmetic
/// wraps in `uint64_t`, so any id (a decoded hostile one included) is
/// defined.
constexpr Value ProvenanceValue(GlobalTxnId id, int op_index) {
  const uint64_t site = static_cast<uint64_t>(id.origin_site) + 1;
  const uint64_t seq = (static_cast<uint64_t>(id.seq) + 1) & 0xFFFFFFFFFF;
  const uint64_t op = static_cast<uint64_t>(op_index) & 0xFF;
  return static_cast<Value>(site << 48 | seq << 8 | op);
}

constexpr SiteId kInvalidSite = -1;
constexpr ItemId kInvalidItem = -1;

}  // namespace lazyrep

#endif  // LAZYREP_COMMON_TYPES_H_
