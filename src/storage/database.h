#ifndef LAZYREP_STORAGE_DATABASE_H_
#define LAZYREP_STORAGE_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "runtime/primitives.h"
#include "runtime/runtime.h"
#include "storage/item_store.h"
#include "storage/lock_manager.h"
#include "storage/mvcc.h"
#include "storage/transaction.h"
#include "storage/wal.h"

namespace lazyrep::storage {

using TxnPtr = std::shared_ptr<Transaction>;

/// CPU cost of storage operations (charged to the site's machine CPU).
struct OpCosts {
  Duration read_cpu = Micros(100);
  Duration write_cpu = Micros(120);
  Duration commit_cpu = Micros(200);
  Duration abort_cpu = Micros(200);
  /// A lock-free MVCC snapshot read (docs/MVCC.md) skips the lock
  /// manager entirely: no acquire/release, no grant queue, no deadlock
  /// bookkeeping. Locking and latching are ~40% of an in-memory read
  /// path ("OLTP Through the Looking Glass", SIGMOD 2008), so the
  /// per-op CPU drops accordingly. Never charged under kSerializable.
  Duration snapshot_read_cpu = Micros(60);

  bool operator==(const OpCosts&) const = default;
};

/// Observer of local commit/abort events. The serializability checker
/// implements this to reconstruct each site's serialization order.
class HistoryObserver {
 public:
  virtual ~HistoryObserver() = default;

  /// `commit_seq` is the site-local commit sequence number; under strict
  /// 2PL it is a serialization order for the site's schedule.
  virtual void OnCommit(SiteId site, const Transaction& txn,
                        int64_t commit_seq) = 0;
  virtual void OnAbort(SiteId site, const Transaction& txn) = 0;

  /// A snapshot read acquired its handle at `stamp` (docs/MVCC.md). Sent
  /// under the lock that orders publication, so every commit the snapshot
  /// cannot see is announced after it.
  virtual void OnSnapshotBegin(SiteId site, const Transaction& txn,
                               int64_t stamp) {
    (void)site;
    (void)txn;
    (void)stamp;
  }

  /// A lock-free snapshot read finished (docs/MVCC.md): it observed the
  /// prefix of the site's commit order up to (excluding) `stamp` in the
  /// stamp space commit_seq + 1. `session_floor` is the RYW floor the
  /// session demanded (0 when none). Consumes no commit sequence.
  virtual void OnSnapshotRead(SiteId site, const Transaction& txn,
                              int64_t stamp, int64_t session_floor) {
    (void)site;
    (void)txn;
    (void)stamp;
    (void)session_floor;
  }
};

/// One site's database instance: main-memory item store + strict-2PL lock
/// manager + undo-based rollback (+ optional redo WAL), mirroring the
/// DataBlitz instance each site ran in the paper's study.
///
/// Composite operations (`Read`, `Write`, `Commit`, `Abort`) are what
/// primary transactions use. The replication engines additionally use the
/// split-level API (`locks()` + `ReadLocked`/`WriteLocked`) to implement
/// the secondary-subtransaction retry/victim rules.
class Database {
 public:
  struct Options {
    SiteId site = 0;
    OpCosts costs;
    LockManager::Config lock_config;
    /// When true, maintain a redo WAL for the site.
    bool enable_wal = false;
    /// When true, commits additionally publish versions to per-item
    /// chains and snapshot reads are served lock-free (docs/MVCC.md).
    /// Off keeps the serializable-only fast path bit-identical.
    bool enable_mvcc = false;
    /// Sites in the system — sizes the per-origin applied tracker.
    int num_sites = 1;
    /// Run version-chain GC every this many publications.
    int mvcc_gc_interval = 128;
  };

  /// `cpu` may be nullptr (no CPU modelling); `observer` may be nullptr.
  Database(runtime::Runtime* rt, Options options, runtime::Resource* cpu,
           HistoryObserver* observer);

  SiteId site() const { return options_.site; }
  ItemStore& store() { return store_; }
  const ItemStore& store() const { return store_; }
  LockManager& locks() { return locks_; }
  const Wal* wal() const { return wal_.get(); }
  Wal* mutable_wal() { return wal_.get(); }
  runtime::Runtime* runtime() const { return rt_; }

  /// Starts a transaction. The returned handle stays valid (shared
  /// ownership) after commit/abort; its state tells what happened.
  TxnPtr Begin(GlobalTxnId id, TxnKind kind);

  /// Charges `d` of CPU on the site's machine (no-op without a CPU).
  runtime::Co<void> ChargeCpu(Duration d);

  /// Acquires an S lock and reads the item. Returns an abort status on
  /// lock timeout (the caller must then call `Abort`), or the abort
  /// reason if the transaction was marked for abort.
  runtime::Co<Status> Read(TxnPtr txn, ItemId item, Value* out);

  /// Acquires an X lock and writes the item (undo-logged).
  runtime::Co<Status> Write(TxnPtr txn, ItemId item, Value value);

  /// Acquires a lock without touching data (PSL remote-read proxies).
  /// On success records the item in the proxy's read/write set.
  runtime::Co<Status> AcquireOnly(TxnPtr txn, ItemId item, LockMode mode);

  /// Reads under an already-held lock (synchronous; no CPU charge).
  Result<Value> ReadLocked(Transaction* txn, ItemId item);

  /// Writes under an already-held X lock (synchronous; no CPU charge).
  Status WriteLocked(Transaction* txn, ItemId item, Value value);

  /// Commits: charges commit CPU, then atomically (no interleaving)
  /// assigns the site commit sequence, runs `atomic_hook` (protocol
  /// engines post propagation messages here so forwarding order equals
  /// commit order, §2), notifies the observer, and releases all locks.
  ///
  /// `defer_wal_sync` (group commit): the commit record is still logged
  /// before publish — only the per-commit sync boundary is deferred; the
  /// applier calls `SyncWal()` once per delivered batch.
  runtime::Co<Status> Commit(TxnPtr txn,
                         std::function<void(int64_t commit_seq)>
                             atomic_hook = nullptr,
                         bool defer_wal_sync = false);

  /// Seals any deferred commit records with one WAL sync boundary
  /// (no-op without a WAL or when nothing is deferred).
  void SyncWal() {
    if (wal_) wal_->Sync();
  }

  /// Rolls back: restores undo images, charges abort CPU, releases locks.
  runtime::Co<void> Abort(TxnPtr txn);

  // --- MVCC snapshot-read path (enable_mvcc only; docs/MVCC.md) ---

  bool mvcc_enabled() const { return options_.enable_mvcc; }

  /// The site's stable watermark: every commit with stamp <= watermark
  /// is fully published. Because publication happens inside `Commit`'s
  /// atomic region, this always equals the latest local commit stamp.
  int64_t watermark() const { return snapshots_.watermark(); }

  /// When the current watermark was published (staleness metrics).
  SimTime watermark_publish_time() const {
    return snapshots_.last_publish_time();
  }

  /// Registers a snapshot read at the current watermark. Never touches
  /// the lock manager; never blocks (beyond a bounded GC-handshake
  /// retry). Pair with `EndSnapshot`. With an observer, `txn`'s stamp is
  /// announced to it (`OnSnapshotBegin`).
  SnapshotHandle BeginSnapshot(const Transaction* txn = nullptr);
  void EndSnapshot(SnapshotHandle* handle) { snapshots_.Release(handle); }

  /// Lock-free read at the handle's stamp; records the observation in
  /// the txn's read set for the snapshot-consistency oracle.
  Result<Value> SnapshotRead(const SnapshotHandle& handle, Transaction* txn,
                             ItemId item);

  /// Retires a snapshot-read transaction: no commit sequence, no lock
  /// release — flips state, notifies the observer, counts the read.
  void FinishSnapshotTxn(TxnPtr txn, const SnapshotHandle& handle,
                         int64_t session_floor);

  /// Highest origin commit stamp from `origin` applied at this site
  /// (kRyw floor checks). Monotone: appliers deliver each origin's
  /// updates in origin commit order.
  int64_t applied_from(SiteId origin) const;

  /// Appliers call this after committing a secondary update carrying
  /// the origin's commit stamp.
  void NoteOriginApplied(SiteId origin, int64_t origin_stamp);

  int64_t snapshot_reads() const {
    return snapshot_reads_.load(std::memory_order_relaxed);
  }
  int64_t gc_reclaimed() const {
    return gc_reclaimed_.load(std::memory_order_relaxed);
  }
  int64_t gc_passes() const {
    return gc_passes_.load(std::memory_order_relaxed);
  }

  int64_t commits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return commits_;
  }
  int64_t aborts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return aborts_;
  }
  int64_t next_commit_seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_commit_seq_;
  }

  /// Transactions begun here that have neither committed nor aborted.
  /// Crash sweeps iterate this; the order is arrival order.
  std::vector<TxnPtr> ActiveTransactions() const;

  /// True while some active transaction still has to be resolved by a
  /// crash sweep. Pinned transactions (durably-prepared 2PC state) and
  /// secondary subtransactions (never aborted; redone at recovery) ride
  /// through crashes and do not count.
  bool HasUnpinnedActive() const;

  /// Crash recovery (requires a WAL): rebuilds the store image by
  /// replaying the WAL into a zero-initialized copy of the same item
  /// placement, then re-applies the in-place writes of still-active
  /// (pinned/prepared) transactions. Their undo before-images stay
  /// valid: strict 2PL means no later commit touched those items, so
  /// replay reproduces exactly the committed values the images were
  /// captured against.
  void RecoverStoreFromWal();

 private:
  Status CheckActive(const Transaction& txn) const;
  static Status OutcomeToStatus(LockOutcome outcome);

  /// Publishes a committed txn's writes as versions at `stamp` and
  /// advances the watermark. Caller holds `mu_` (stamp order == publish
  /// order even across lanes).
  void PublishCommittedVersions(const Transaction& txn, int64_t stamp);

  /// Periodic chain GC: floor handshake via the registry, then prune.
  void MaybeRunMvccGc();

  runtime::Runtime* rt_;
  Options options_;
  runtime::Resource* cpu_;
  HistoryObserver* observer_;
  ItemStore store_;
  LockManager locks_;
  std::unique_ptr<Wal> wal_;
  /// Guards the transaction registry and sequence counters below: with
  /// multi-worker sites, `Begin`/`Abort` run on whichever lane drives
  /// the transaction while crash sweeps and quiescence checks read from
  /// the home lane. Commits additionally stay serialized on the site's
  /// home lane (engines hop there before `Commit`), which — not this
  /// mutex — is what keeps "forwarding order equals commit order".
  mutable std::mutex mu_;
  /// Keyed by identity; values keep the handles alive for crash sweeps.
  std::unordered_map<const Transaction*, TxnPtr> active_;
  int64_t next_arrival_seq_ = 0;
  int64_t next_commit_seq_ = 0;
  int64_t commits_ = 0;
  int64_t aborts_ = 0;

  /// MVCC state (all unused unless enable_mvcc). The registry survives
  /// crash recovery — the watermark must never go backwards across a
  /// WAL replay (version chains are re-seeded instead).
  SnapshotRegistry snapshots_;
  /// applied_from_[origin]: highest origin commit stamp applied here.
  std::unique_ptr<std::atomic<int64_t>[]> applied_from_;
  std::atomic<int64_t> snapshot_reads_{0};
  std::atomic<int64_t> gc_reclaimed_{0};
  std::atomic<int64_t> gc_passes_{0};
  std::atomic<int64_t> publishes_since_gc_{0};
  /// Serializes GC passes (commit path is home-lane serialized, but the
  /// mutex keeps the prune/handshake pair atomic under future callers).
  std::mutex gc_mu_;
};

}  // namespace lazyrep::storage

#endif  // LAZYREP_STORAGE_DATABASE_H_
