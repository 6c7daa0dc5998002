#ifndef LAZYREP_CORE_STREAMING_ORACLE_H_
#define LAZYREP_CORE_STREAMING_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/sim_time.h"
#include "common/types.h"
#include "core/history.h"
#include "storage/database.h"

namespace lazyrep::core {

/// The serializability oracle run as commits happen (docs/CHECKING.md,
/// "The streaming oracle"). It checks what `CheckSerializability`,
/// `CheckReadConsistency` and `CheckSnapshotConsistency` check over a
/// finished history, with the same counts, but holds only the
/// transactions that can still join a cycle:
///
///  - Each site's locking records are released in commit-seq order from
///    a reorder buffer and replayed through the per-item
///    `{last_writer, readers_since}` step of the quiescence checker; a
///    snapshot record waits until its site's released prefix reaches its
///    stamp. A record with empty read and write sets only advances the
///    seq.
///  - A transaction is *closed* once all of its non-empty records have
///    been replayed; the engines announce how many to expect
///    (`ExpectRecords`) from their origin commit hooks. A closed
///    transaction with no in-edge from a live one is deleted, with its
///    out-edges, and the deletion cascades.
///  - An incremental topological order over the live transactions
///    (Pearce & Kelly's setting, with the forward-search reordering they
///    compare against) catches the edge that closes a cycle as it is
///    added. An edge whose reordering would span more than
///    `kReorderSpan` positions defers to a batched re-sort of the live
///    graph, which catches it within a bounded number of records. The
///    first cycle is kept with a witness, the index of the record that
///    revealed it and the time.
///
/// Internally synchronized: every site's database reports here. Reports
/// are queued in arrival order and replayed in that order.
class StreamingOracle : public storage::HistoryObserver {
 public:
  /// `now` stamps a detection with the runtime's time; null stamps 0.
  /// By default the callers replay what they report, one at a time. With
  /// `pumped`, they only queue it, and the owner replays by calling
  /// `Pump()`; the System does so from the thread that called `Run`,
  /// which otherwise only waits, so commits never wait for the replay.
  explicit StreamingOracle(std::function<SimTime()> now = nullptr,
                           bool pumped = false);
  ~StreamingOracle() override;

  StreamingOracle(const StreamingOracle&) = delete;
  StreamingOracle& operator=(const StreamingOracle&) = delete;

  void OnCommit(SiteId site, const storage::Transaction& txn,
                int64_t commit_seq) override;
  void OnAbort(SiteId site, const storage::Transaction& txn) override;
  void OnSnapshotBegin(SiteId site, const storage::Transaction& txn,
                       int64_t stamp) override;
  void OnSnapshotRead(SiteId site, const storage::Transaction& txn,
                      int64_t stamp, int64_t session_floor) override;

  /// The close rule's input: `id` will have exactly `records` non-empty
  /// records. Engines call this from the origin's commit hook, before any
  /// of the transaction's records can exist elsewhere. A transaction
  /// nobody announces closes with its origin-site record.
  void ExpectRecords(const GlobalTxnId& id, int records);

  /// An announced site committed an empty record for `id` after all
  /// (NaiveLazy's last-writer-wins applier skipped every write): one
  /// record fewer is expected.
  void WithdrawRecord(const GlobalTxnId& id);

  /// Feeds a scripted record, as the observer calls do (tests and
  /// benchmarks). Its read and write sets must ascend without repeats,
  /// as a HistoryRecorder's do.
  void AddRecord(HistoryRecorder::Record record);
  /// Registers a snapshot acquired at `stamp`, as `OnSnapshotBegin`.
  void BeginSnapshot(SiteId site, const GlobalTxnId& id, int64_t stamp);

  /// Replays everything queued so far.
  void Pump();

  /// Called with each transaction's announced record count as it closes
  /// (under the oracle's lock; must not call back into the oracle).
  void SetCloseHook(std::function<void(const GlobalTxnId&, int)> hook);

  /// The verdicts so far. Settles a deferred order first, so that every
  /// cycle among the records received is reported.
  SerializabilityVerdict Serializability();
  ReadConsistencyVerdict ReadConsistency();
  SnapshotConsistencyVerdict SnapshotConsistency();

  /// Where the first cycle was seen: the 0-based arrival index of the
  /// record whose replay closed it (-1 while none) and the time.
  struct Detection {
    int64_t record_index = -1;
    SimTime time = 0;
  };
  Detection detection();

  struct Stats {
    int64_t records = 0;          // Records received.
    size_t live_txns = 0;         // Transactions held now.
    size_t peak_live_txns = 0;
    size_t live_edges = 0;        // Graph edges between live ones.
    size_t buffered_records = 0;  // Waiting in reorder buffers.
    size_t resorts = 0;           // Orders rebuilt after a deferral.
    /// The heap the state above occupies, estimated from container
    /// sizes and capacities.
    size_t heap_bytes = 0;
  };
  Stats stats();

  /// At quiescence: CHECKs that every reorder buffer is empty and every
  /// transaction is closed and deleted.
  void CheckDrained();

 private:
  using Record = HistoryRecorder::Record;
  /// A transaction's identity for edge counting: its slot in the upper
  /// half and the slot's generation in the lower, unique over the run.
  using Ref = uint64_t;
  static constexpr Ref kNoRef = ~Ref{0};

  /// A growable array in 16 bytes, for the per-transaction edge lists
  /// that make up most of the oracle's memory.
  template <typename T>
  class EdgeList {
   public:
    EdgeList() = default;
    EdgeList(EdgeList&& other) noexcept { Swap(other); }
    EdgeList& operator=(EdgeList&& other) noexcept {
      Swap(other);
      return *this;
    }
    ~EdgeList() { delete[] data_; }

    T* begin() { return data_; }
    T* end() { return data_ + size_; }
    const T* begin() const { return data_; }
    const T* end() const { return data_ + size_; }
    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }
    T& operator[](size_t i) { return data_[i]; }
    T& back() { return data_[size_ - 1]; }
    void pop_back() { --size_; }
    void push_back(T value) {
      if (size_ == capacity_) Grow();
      data_[size_++] = value;
    }
    /// Empties it and gives its memory back.
    void Release() { EdgeList().Swap(*this); }

   private:
    void Grow() {
      const uint32_t capacity = capacity_ == 0 ? 4 : capacity_ + capacity_ / 2;
      T* data = new T[capacity];
      std::copy(data_, data_ + size_, data);
      delete[] data_;
      data_ = data;
      capacity_ = capacity;
    }
    void Swap(EdgeList& other) {
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
      std::swap(capacity_, other.capacity_);
    }
    T* data_ = nullptr;
    uint32_t size_ = 0;
    uint32_t capacity_ = 0;
  };

  struct Node {
    uint64_t key = 0;      // KeyOf(its id).
    uint32_t gen = 0;
    uint32_t pos = 0;      // Index in `order_`.
    uint32_t mark = 0;     // Search epoch that last visited it.
    uint32_t parent = 0;   // Searches: reached from.
    int32_t live_in = 0;   // Graph in-edges, all from live nodes.
    int16_t expected = 0;
    int16_t seen = 0;
    bool live = false;
    bool closed = false;
    /// Distinct predecessors while open, deleted ones included, ascending.
    EdgeList<Ref> preds;
    EdgeList<uint32_t> out;  // Graph out-edges, to live nodes.
  };
  /// A transaction id packed into the hash key and the node.
  static uint64_t KeyOf(const GlobalTxnId& id);
  static GlobalTxnId IdOf(uint64_t key);
  struct Version {
    int64_t seq;
    Value value;
  };
  struct ItemState {
    Ref last_writer = kNoRef;
    std::vector<Ref> readers_since;
    bool written = false;
    Version current{0, 0};
    std::vector<Version> older;  // Kept for open snapshots, ascending.
  };
  struct OpenSnapshot {
    GlobalTxnId id;
    int64_t stamp;
  };
  struct Site {
    int64_t next_seq = 0;                      // Released prefix.
    std::map<int64_t, Record> pending;         // Locking, by seq.
    std::multimap<int64_t, Record> snapshots;  // Held, by stamp.
    std::vector<OpenSnapshot> open;
    int64_t pruned_to = 0;  // Highest horizon versions were pruned to.
    std::unordered_map<ItemId, ItemState> items;
  };

  /// What the observer calls and the announcements become: queued in
  /// arrival order, applied in that order by whichever caller holds
  /// `mu_`, so that commits never wait for each other's replay.
  struct Event {
    enum class Kind : uint8_t {
      kRecord,
      kExpect,
      kWithdraw,
      kSnapshotBegin,
      kAbort
    };
    Kind kind = Kind::kRecord;
    SiteId site = 0;
    GlobalTxnId id;
    int64_t value = 0;  // kExpect: records; kSnapshotBegin: stamp.
    Record record;      // kRecord.
  };
  /// Queues `event`; with `process`, also drains the inbox unless another
  /// caller is at it. Callers inside a database's critical section pass
  /// false.
  void Post(Event event, bool process);
  /// Applies queued events until the inbox is empty. Requires `mu_`.
  void Drain();
  void Apply(Event e);

  Site& SiteState(SiteId site);
  void Arrive(Record record);
  void Release(Site& site);
  /// One released locking record: the conflict step, then the read and
  /// value steps.
  void Replay(Site& site, const Record& r);
  void CheckSnapshot(Site& site, const Record& r);
  /// Oldest stamp a snapshot of `site` can still read at.
  int64_t Horizon(const Site& site) const;
  void Install(Site& site, ItemState& item, int64_t seq, Value value);

  /// The slot of the live transaction `id`, or -1.
  int64_t FindSlot(const GlobalTxnId& id) const;
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
           (table_.size() - 1);
  }
  void InsertSlot(uint32_t slot);
  void EraseSlot(uint32_t slot);
  uint32_t NewNode(const GlobalTxnId& id, int expected);
  Ref RefOf(uint32_t slot) const {
    return (Ref{slot} << 32) | nodes_[slot].gen;
  }
  /// The live slot `ref` names, or -1 when that transaction was deleted.
  int64_t LiveSlot(Ref ref) const;
  /// Adds the edges from the transactions in `scratch_` into `to`: each
  /// new predecessor is counted, and enters the graph if it is live.
  void AddEdges(uint32_t to);
  /// Adds the graph edge u -> v, keeping the order (`Reorder`) while it
  /// is valid. An edge that closes a cycle is noted and left out, so the
  /// graph stays acyclic.
  void InsertGraphEdge(uint32_t u, uint32_t v);
  /// Restores the order for a new edge u -> v that runs against it: what
  /// v reaches inside the span between them moves after u. False when
  /// that includes u (a cycle). A span wider than `kReorderSpan` is left
  /// to the next `Resort` instead.
  bool Reorder(uint32_t u, uint32_t v);
  bool Defer();
  /// Re-sorts once enough records have passed since the order went
  /// stale: at least `kMinBatch`, and no fewer than live transactions,
  /// so a re-sort costs O(1) amortized per record.
  void MaybeResort();
  /// Topological sort of the live graph from scratch; takes out (and
  /// notes) every edge that closes a cycle.
  void Resort();
  /// Applies what is queued and rebuilds a deferred order, so that a
  /// verdict covers every record received. Requires `mu_`.
  void Settle() {
    Drain();
    if (!order_valid_) Resort();
  }
  /// Records the cycle u -> v -> ... -> u, where `parent` links lead
  /// from u back to v.
  void NoteCycle(uint32_t u, uint32_t v);
  void MaybeClose(uint32_t slot);
  void Delete(uint32_t slot);
  void Fail(std::string* violation, bool* consistent, std::string message);

  std::function<SimTime()> now_;
  const bool pumped_;
  std::function<void(const GlobalTxnId&, int)> close_hook_;
  std::mutex inbox_mu_;
  std::vector<Event> inbox_;
  static constexpr size_t kMaxQueued = 1024;
  /// Guards everything below, and the replay.
  std::mutex mu_;
  std::vector<Site> sites_;
  std::deque<Node> nodes_;  // By slot; growing never copies them.
  /// Per slot: the generation of its live node, else `kDeadTag`. Kept
  /// apart from the nodes so that liveness checks stay in cache.
  std::vector<uint32_t> tags_;
  static constexpr uint32_t kDeadTag = ~uint32_t{0};
  std::vector<uint32_t> free_;
  std::vector<Ref> scratch_;  // Replay's candidate predecessors.
  /// Live transactions by id: open addressing over slots + 1 (0 is
  /// empty), probed linearly from a hash of the node's key.
  std::vector<uint32_t> table_;
  size_t live_ = 0;
  /// The live transactions in a topological order, with holes left by
  /// deletions (`kHole`).
  std::vector<uint32_t> order_;
  static constexpr uint32_t kHole = ~uint32_t{0};
  uint32_t epoch_ = 0;
  static constexpr uint32_t kReorderSpan = 1024;
  static constexpr size_t kMinBatch = 1024;
  bool order_valid_ = true;
  size_t resorts_ = 0;
  int64_t records_at_defer_ = 0;

  // Totals, equal to the quiescence checkers'.
  size_t node_count_ = 0;
  size_t edge_count_ = 0;
  int64_t records_ = 0;
  size_t buffered_ = 0;
  size_t peak_live_ = 0;
  size_t live_edges_ = 0;

  SerializabilityVerdict serial_;
  Detection detection_;
  ReadConsistencyVerdict reads_;
  SnapshotConsistencyVerdict snapshots_;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_STREAMING_ORACLE_H_
