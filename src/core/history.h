#ifndef LAZYREP_CORE_HISTORY_H_
#define LAZYREP_CORE_HISTORY_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/compact_array.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "storage/database.h"

namespace lazyrep::core {

/// Records every committed (sub)transaction at every site together with
/// the site-local commit order. Because each site runs strict 2PL, the
/// local commit order is a serialization order of the site's schedule —
/// exactly the premise the paper's correctness arguments build on.
///
/// A `System` keeps records only on traced runs. Its verdicts come from
/// the `StreamingOracle`; the quiescence checkers below are the
/// reference the tests hold it to (docs/CHECKING.md).
class HistoryRecorder : public storage::HistoryObserver {
 public:
  /// One committed (sub)transaction. Access sets are sorted, duplicate-
  /// free arrays and the value maps sorted-array maps, each one pointer
  /// in the record. A held record's four blocks are borrowed from the
  /// recorder's arena, so it is an 80-byte header plus its packed
  /// payload; a copy (`Record(r)`) owns heap copies and outlives the
  /// recorder.
  struct Record {
    SiteId site = kInvalidSite;
    /// MVCC snapshot read-only transaction (never holds locks, never
    /// enters the site's commit order). `commit_seq` is meaningless for
    /// these; visibility is defined by `snapshot_stamp` instead.
    bool snapshot = false;
    GlobalTxnId origin;  // Secondaries/proxies carry their origin's id.
    int64_t commit_seq = 0;
    /// Watermark the snapshot read at: commits with commit_seq + 1 <=
    /// stamp (i.e. commit_seq < stamp) are visible, later ones are not.
    int64_t snapshot_stamp = 0;
    /// Read-your-writes floor the session demanded (0 when none). The
    /// oracle checks floor <= stamp.
    int64_t session_floor = 0;
    CompactArray<ItemId> reads;
    CompactArray<ItemId> writes;
    /// Value observed by the first (non-own-write) read per item; may be
    /// missing for lock-only reads (PSL proxies).
    FlatMap<ItemId, Value> reads_observed;
    /// Final value installed per written item.
    FlatMap<ItemId, Value> writes_final;
  };

  void OnCommit(SiteId site, const storage::Transaction& txn,
                int64_t commit_seq) override;
  void OnAbort(SiteId site, const storage::Transaction& txn) override;
  void OnSnapshotRead(SiteId site, const storage::Transaction& txn,
                      int64_t stamp, int64_t session_floor) override;

  /// Appends a record (scripted histories in tests/examples pass theirs
  /// directly), sorting and deduplicating its read and write sets: the
  /// checkers rely on that order. The record's blocks are copied into the
  /// arena, where the held record borrows them. Internally synchronized:
  /// sites on every machine record here. The checkers read `records()`
  /// only after the run has fully drained.
  void AddRecord(Record record);

  /// Chunked storage: appending never moves the records already held, so
  /// the history never needs its old and new buffers at once.
  const std::deque<Record>& records() const { return records_; }
  int64_t aborts_seen() const {
    return aborts_.load(std::memory_order_relaxed);
  }

 private:
  /// A little under 256 KiB, so that a chunk and malloc's header for it
  /// fill whole pages.
  static constexpr size_t kChunkBytes = (size_t{256} << 10) - 64;

  /// Returns `bytes` of arena space (null for none): from the current
  /// chunk, from a fresh one when it is full, or from a chunk of its own
  /// when more than a chunk is asked for. Requires `mu_`.
  char* Carve(size_t bytes);

  std::mutex mu_;
  // The arena: the chunks holding every record's payload. Declared before
  // `records_`, so that the chunks outlive the records borrowing them.
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* tail_ = nullptr;  // Unused tail of the current chunk.
  size_t tail_bytes_ = 0;
  std::deque<Record> records_;
  std::atomic<int64_t> aborts_{0};
};

/// Result of a global serializability check.
struct SerializabilityVerdict {
  bool serializable = true;
  /// A witness cycle of origin transaction ids when not serializable.
  std::vector<GlobalTxnId> cycle;
  size_t nodes = 0;
  size_t edges = 0;

  std::string ToString() const;
};

/// Builds the global conflict (serialization) graph from per-site commit
/// orders and checks it for cycles — the paper's serializability
/// criterion: the union over sites of each site's serialization order,
/// with secondary subtransactions identified with their origin
/// transaction, must be acyclic.
///
/// Edge rule at each site, per item, scanning commits in commit-seq
/// order: write→write, write→read and read→write conflicts produce edges
/// from the earlier committer to the later one.
SerializabilityVerdict CheckSerializability(const HistoryRecorder& history);

/// Result of the per-site read-consistency check.
struct ReadConsistencyVerdict {
  bool consistent = true;
  size_t reads_checked = 0;
  /// First violation found, for diagnostics.
  std::string violation;
};

/// Verifies a strict-2PL value invariant at every site: each committed
/// transaction's first read of an item observed exactly the value
/// installed by the last writer committed before it at that site (or the
/// initial value 0). Catches undo/isolation bugs the conflict-graph
/// checker cannot see.
ReadConsistencyVerdict CheckReadConsistency(const HistoryRecorder& history);

/// Result of the MVCC snapshot-consistency check.
struct SnapshotConsistencyVerdict {
  bool consistent = true;
  size_t snapshots_checked = 0;
  size_t reads_checked = 0;
  /// First violation found, for diagnostics.
  std::string violation;
};

/// Verifies that every MVCC snapshot read observed a prefix-closed,
/// commit-order-consistent cut of its site's history: a snapshot taken at
/// watermark W must see, for each item, exactly the value installed by
/// the site's last writer with commit_seq < W (stamps are commit_seq +
/// 1), or the initial value 0 when no such writer exists. Also enforces
/// the read-your-writes contract: a session floor recorded with the
/// snapshot must satisfy floor <= W.
SnapshotConsistencyVerdict CheckSnapshotConsistency(
    const HistoryRecorder& history);

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_HISTORY_H_
