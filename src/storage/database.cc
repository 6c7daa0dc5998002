#include "storage/database.h"

#include <algorithm>

#include "common/strings.h"

namespace lazyrep::storage {

Database::Database(runtime::Runtime* rt, Options options,
                   runtime::Resource* cpu, HistoryObserver* observer)
    : rt_(rt),
      options_(options),
      cpu_(cpu),
      observer_(observer),
      locks_(rt, options.lock_config) {
  if (options_.enable_wal) wal_ = std::make_unique<Wal>();
  if (options_.enable_mvcc) {
    store_.EnableVersioning();
    applied_from_ = std::make_unique<std::atomic<int64_t>[]>(
        static_cast<size_t>(options_.num_sites));
    for (int i = 0; i < options_.num_sites; ++i) {
      applied_from_[i].store(0, std::memory_order_relaxed);
    }
  }
}

TxnPtr Database::Begin(GlobalTxnId id, TxnKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  TxnPtr txn = std::make_shared<Transaction>(id, kind, rt_->Now(),
                                             next_arrival_seq_++);
  active_.emplace(txn.get(), txn);
  return txn;
}

std::vector<TxnPtr> Database::ActiveTransactions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TxnPtr> out;
  out.reserve(active_.size());
  for (const auto& [ptr, txn] : active_) out.push_back(txn);
  std::sort(out.begin(), out.end(), [](const TxnPtr& a, const TxnPtr& b) {
    return a->arrival_seq() < b->arrival_seq();
  });
  return out;
}

bool Database::HasUnpinnedActive() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [ptr, txn] : active_) {
    // Pinned (prepared) transactions and secondary subtransactions ride
    // through a crash; everything else must finish rolling back before
    // the store image can be rebuilt.
    if (txn->pinned() || txn->kind() == TxnKind::kSecondary) continue;
    return true;
  }
  return false;
}

void Database::RecoverStoreFromWal() {
  LAZYREP_CHECK(wal_ != nullptr) << "recovery without a WAL";
  ItemStore fresh;
  if (options_.enable_mvcc) fresh.EnableVersioning();
  for (const auto& [item, value] : store_.Snapshot()) {
    fresh.AddItem(item, 0);
  }
  wal_->Replay(&fresh);
  store_ = std::move(fresh);
  // Version history is volatile: re-seed every chain from the replayed
  // committed image *before* re-applying prepared transactions' in-place
  // writes, so snapshot readers keep seeing committed data only. The
  // watermark (snapshots_) deliberately survives the swap — it must not
  // go backwards across a WAL replay, and the stamp-0 seeds serve every
  // stamp up to it with the replayed committed values.
  if (options_.enable_mvcc) store_.ResetVersionsToCurrent();
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [ptr, txn] : active_) {
    for (const auto& [item, value] : txn->writes_final_) {
      Result<Value> r = store_.Put(item, value);
      LAZYREP_CHECK(r.ok());
    }
  }
}

runtime::Co<void> Database::ChargeCpu(Duration d) {
  if (cpu_ != nullptr && d > 0) co_await cpu_->Consume(d);
}

Status Database::CheckActive(const Transaction& txn) const {
  if (txn.state() != TxnState::kActive) {
    return Status::FailedPrecondition("transaction is not active");
  }
  if (txn.abort_requested()) return txn.abort_reason();
  return Status::OK();
}

Status Database::OutcomeToStatus(LockOutcome outcome) {
  switch (outcome) {
    case LockOutcome::kGranted:
      return Status::OK();
    case LockOutcome::kTimeout:
      return Status::DeadlockAbort("lock wait timeout");
    case LockOutcome::kAborted:
      return Status::ExternalAbort("aborted while waiting for a lock");
    case LockOutcome::kDied:
      return Status::DeadlockAbort("wait-die victim");
  }
  return Status::Internal("unreachable");
}

runtime::Co<Status> Database::Read(TxnPtr txn, ItemId item, Value* out) {
  LAZYREP_CO_RETURN_IF_ERROR(CheckActive(*txn));
  LockOutcome lo =
      co_await locks_.Acquire(txn.get(), item, LockMode::kShared);
  if (lo != LockOutcome::kGranted) co_return OutcomeToStatus(lo);
  co_await ChargeCpu(options_.costs.read_cpu);
  if (txn->abort_requested()) co_return txn->abort_reason();
  Result<Value> v = store_.Get(item);
  if (!v.ok()) co_return v.status();
  if (txn->read_set_.insert(item).second &&
      txn->write_set_.count(item) == 0) {
    // First, non-own-write read: what the checker validates.
    txn->reads_observed_.emplace(item, *v);
  }
  *out = *v;
  co_return Status::OK();
}

runtime::Co<Status> Database::Write(TxnPtr txn, ItemId item, Value value) {
  LAZYREP_CO_RETURN_IF_ERROR(CheckActive(*txn));
  LockOutcome lo =
      co_await locks_.Acquire(txn.get(), item, LockMode::kExclusive);
  if (lo != LockOutcome::kGranted) co_return OutcomeToStatus(lo);
  co_await ChargeCpu(options_.costs.write_cpu);
  if (txn->abort_requested()) co_return txn->abort_reason();
  co_return WriteLocked(txn.get(), item, value);
}

runtime::Co<Status> Database::AcquireOnly(TxnPtr txn, ItemId item,
                                      LockMode mode) {
  LAZYREP_CO_RETURN_IF_ERROR(CheckActive(*txn));
  LockOutcome lo = co_await locks_.Acquire(txn.get(), item, mode);
  if (lo != LockOutcome::kGranted) co_return OutcomeToStatus(lo);
  if (mode == LockMode::kShared) {
    txn->read_set_.insert(item);
  } else {
    txn->write_set_.insert(item);
  }
  co_return Status::OK();
}

Result<Value> Database::ReadLocked(Transaction* txn, ItemId item) {
  LAZYREP_CHECK(locks_.Holds(txn, item, LockMode::kShared))
      << "ReadLocked without a lock on item " << item;
  Result<Value> v = store_.Get(item);
  if (v.ok() && txn->read_set_.insert(item).second &&
      txn->write_set_.count(item) == 0) {
    txn->reads_observed_.emplace(item, *v);
  }
  return v;
}

Status Database::WriteLocked(Transaction* txn, ItemId item, Value value) {
  LAZYREP_CHECK(locks_.Holds(txn, item, LockMode::kExclusive))
      << "WriteLocked without an X lock on item " << item;
  Result<Value> old = store_.Get(item);
  if (!old.ok()) return old.status();
  // Write-ahead: the redo record hits the log before the in-place store
  // update, so no store state can exist that the log cannot reproduce.
  if (wal_) wal_->LogUpdate(txn->id(), item, value);
  Result<Value> put = store_.Put(item, value);
  LAZYREP_CHECK(put.ok());
  if (txn->write_set_.insert(item).second) {
    // First write of this item: remember the before-image for rollback.
    txn->undo_log_.push_back({item, *old});
  }
  txn->writes_final_[item] = value;
  return Status::OK();
}

runtime::Co<Status> Database::Commit(
    TxnPtr txn, std::function<void(int64_t commit_seq)> atomic_hook,
    bool defer_wal_sync) {
  LAZYREP_CHECK(txn->state() == TxnState::kActive);
  LAZYREP_CHECK(!txn->abort_requested())
      << "commit of a transaction marked for abort";
  co_await ChargeCpu(options_.costs.commit_cpu);
  // The paper requires commits (and the forwarding they trigger) to be
  // atomic with respect to each other; everything below runs without a
  // suspension point.
  if (txn->abort_requested()) {
    // Marked while paying the commit CPU cost — too late to win; roll
    // back instead.
    co_await Abort(txn);
    co_return txn->abort_reason();
  }
  // Log-before-publish: the commit record seals the transaction in the
  // WAL before any effect of the commit becomes observable (state flip,
  // propagation hook, lock release) — recovery must never resurrect a
  // value readers could not yet see, nor lose one they could.
  if (wal_) wal_->LogCommit(txn->id(), /*sync=*/!defer_wal_sync);
  int64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_commit_seq_++;
    txn->state_ = TxnState::kCommitted;
    ++commits_;
    active_.erase(txn.get());
    // Publish-at-commit: versions become reachable and the watermark
    // advances inside the same atomic region that assigns the stamp, so
    // the watermark always equals the latest local commit stamp and a
    // snapshot cut is a prefix of this site's commit order by
    // construction (docs/MVCC.md).
    if (options_.enable_mvcc) PublishCommittedVersions(*txn, seq + 1);
  }
  if (atomic_hook) atomic_hook(seq);
  if (observer_ != nullptr) observer_->OnCommit(options_.site, *txn, seq);
  locks_.ReleaseAll(txn.get());
  if (options_.enable_mvcc) MaybeRunMvccGc();
  co_return Status::OK();
}

void Database::PublishCommittedVersions(const Transaction& txn,
                                        int64_t stamp) {
  for (const auto& [item, value] : txn.writes_final_) {
    store_.PublishVersion(item, value, stamp);
  }
  // Read-only (and write-free secondary) commits still advance the
  // watermark: the cut stays a prefix of the commit order either way.
  snapshots_.Publish(stamp, rt_->Now());
}

SnapshotHandle Database::BeginSnapshot(const Transaction* txn) {
  if (observer_ == nullptr || txn == nullptr) return snapshots_.Acquire();
  // Commits publish under `mu_` and notify after it: acquiring and
  // announcing under it puts every commit this snapshot cannot see after
  // the announcement.
  std::lock_guard<std::mutex> lock(mu_);
  SnapshotHandle handle = snapshots_.Acquire();
  observer_->OnSnapshotBegin(options_.site, *txn, handle.stamp);
  return handle;
}

Result<Value> Database::SnapshotRead(const SnapshotHandle& handle,
                                     Transaction* txn, ItemId item) {
  Result<Value> v = store_.ReadAtStamp(item, handle.stamp);
  if (!v.ok()) return v;
  if (txn->read_set_.insert(item).second) {
    txn->reads_observed_.emplace(item, *v);
  }
  return v;
}

void Database::FinishSnapshotTxn(TxnPtr txn, const SnapshotHandle& handle,
                                 int64_t session_floor) {
  LAZYREP_CHECK(txn->state() == TxnState::kActive);
  LAZYREP_CHECK(txn->write_set_.empty())
      << "snapshot transaction acquired locks";
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn->state_ = TxnState::kCommitted;
    active_.erase(txn.get());
  }
  snapshot_reads_.fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) {
    observer_->OnSnapshotRead(options_.site, *txn, handle.stamp,
                              session_floor);
  }
}

int64_t Database::applied_from(SiteId origin) const {
  if (applied_from_ == nullptr || origin < 0 ||
      origin >= options_.num_sites) {
    return 0;
  }
  return applied_from_[origin].load(std::memory_order_acquire);
}

void Database::NoteOriginApplied(SiteId origin, int64_t origin_stamp) {
  if (applied_from_ == nullptr || origin < 0 ||
      origin >= options_.num_sites) {
    return;
  }
  std::atomic<int64_t>& cell = applied_from_[origin];
  int64_t cur = cell.load(std::memory_order_relaxed);
  while (cur < origin_stamp &&
         !cell.compare_exchange_weak(cur, origin_stamp,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
  }
}

void Database::MaybeRunMvccGc() {
  if (publishes_since_gc_.fetch_add(1, std::memory_order_relaxed) + 1 <
      options_.mvcc_gc_interval) {
    return;
  }
  publishes_since_gc_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(gc_mu_);
  int64_t floor = snapshots_.BeginGc();
  size_t freed = store_.PruneVersionsBelow(floor);
  snapshots_.EndGc();
  gc_passes_.fetch_add(1, std::memory_order_relaxed);
  gc_reclaimed_.fetch_add(static_cast<int64_t>(freed),
                          std::memory_order_relaxed);
}

runtime::Co<void> Database::Abort(TxnPtr txn) {
  LAZYREP_CHECK(txn->state() == TxnState::kActive);
  // Restore before-images in reverse write order.
  for (auto it = txn->undo_log_.rbegin(); it != txn->undo_log_.rend();
       ++it) {
    Result<Value> r = store_.Put(it->item, it->old_value);
    LAZYREP_CHECK(r.ok());
  }
  txn->undo_log_.clear();
  co_await ChargeCpu(options_.costs.abort_cpu);
  {
    std::lock_guard<std::mutex> lock(mu_);
    txn->state_ = TxnState::kAborted;
    ++aborts_;
    active_.erase(txn.get());
  }
  if (wal_) wal_->LogAbort(txn->id());
  if (observer_ != nullptr) observer_->OnAbort(options_.site, *txn);
  locks_.ReleaseAll(txn.get());
}

}  // namespace lazyrep::storage
