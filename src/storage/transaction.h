#ifndef LAZYREP_STORAGE_TRANSACTION_H_
#define LAZYREP_STORAGE_TRANSACTION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/types.h"

namespace lazyrep::storage {

/// Role of a (sub)transaction at a site. The lock manager's victim
/// selection (the BackEdge protocol's rule, §4.1) depends on it.
enum class TxnKind {
  /// A transaction that originated at this site.
  kPrimary,
  /// A forwarded secondary subtransaction (applies a remote transaction's
  /// updates). Secondaries are never chosen as deadlock victims; they must
  /// eventually commit for the protocols to make progress (§2).
  kSecondary,
  /// A proxy acquiring locks at this site on behalf of a transaction
  /// running elsewhere (PSL remote reads; BackEdge backedge
  /// subtransactions also use this kind at remote sites).
  kRemoteProxy,
};

enum class TxnState { kActive, kCommitted, kAborted };

/// Per-site transaction context: identity, lifecycle state, undo log and
/// abort signalling. Lock bookkeeping lives in the LockManager; value
/// bookkeeping in the Database.
///
/// Transactions are created by `Database::Begin` and owned by the
/// Database until `Commit`/`Abort` completes. They are always
/// shared-owned (`TxnPtr`), so the lock table can hand a holder out
/// with a reference that keeps it alive (`LockManager::BlockingHolders`).
///
/// Concurrency: with multi-worker sites the abort flags and lifecycle
/// bits are read and written across worker lanes (a wait-die victim is
/// selected from the releasing lane, a crash sweep aborts from the home
/// lane), so they are atomics and the abort-hook map is mutex-guarded.
/// The read/write/undo bookkeeping stays unsynchronized: it is only
/// touched by the single coroutine driving the transaction (plus the
/// checkers at quiescence).
class Transaction : public std::enable_shared_from_this<Transaction> {
 public:
  Transaction(GlobalTxnId id, TxnKind kind, SimTime start_time,
              int64_t arrival_seq)
      : id_(id),
        kind_(kind),
        start_time_(start_time),
        arrival_seq_(arrival_seq) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  const GlobalTxnId& id() const { return id_; }
  TxnKind kind() const { return kind_; }
  TxnState state() const { return state_.load(std::memory_order_acquire); }
  SimTime start_time() const { return start_time_; }

  /// Monotone per-site arrival number; the "latest arrival" deadlock
  /// victim policy compares these.
  int64_t arrival_seq() const { return arrival_seq_; }

  /// True while the transaction originated a backedge subtransaction and
  /// is holding its locks waiting for the special secondary subtransaction
  /// to come back (BackEdge §4.1). Such transactions are the preferred
  /// deadlock victims.
  bool backedge_pending() const {
    return backedge_pending_.load(std::memory_order_acquire);
  }
  void set_backedge_pending(bool v) {
    backedge_pending_.store(v, std::memory_order_release);
  }

  /// Pinned transactions are inside commit processing (e.g. a 2PC that
  /// has started voting) and are skipped by deadlock victim selection —
  /// they will release their locks shortly on their own.
  bool pinned() const { return pinned_.load(std::memory_order_acquire); }
  void set_pinned(bool v) { pinned_.store(v, std::memory_order_release); }

  /// Eligible for deadlock victim selection: secondaries must eventually
  /// commit (§2) and pinned transactions are mid-commit.
  bool CanBeVictim() const {
    return kind_ != TxnKind::kSecondary && !pinned();
  }

  /// --- Abort signalling -------------------------------------------------

  bool abort_requested() const {
    return abort_requested_.load(std::memory_order_acquire);
  }
  /// The reason is written once, before `abort_requested()` flips true,
  /// and never changes afterwards — reading it after observing the flag
  /// is race-free.
  const Status& abort_reason() const { return abort_reason_; }

  /// Marks the transaction for abort and fires registered hooks (e.g. a
  /// lock waiter unlinking itself). Idempotent. The owner of the
  /// transaction's control flow performs the actual rollback when it next
  /// observes the flag. Hooks fire outside the mutex: they may re-enter
  /// the lock manager, whose stripe locks are taken after transaction
  /// state (never the reverse).
  void RequestAbort(Status reason) {
    std::map<uint64_t, std::function<void()>> hooks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (abort_requested_.load(std::memory_order_relaxed) ||
          state() != TxnState::kActive) {
        return;
      }
      abort_reason_ = std::move(reason);
      abort_requested_.store(true, std::memory_order_release);
      hooks = std::move(abort_hooks_);
      abort_hooks_.clear();
    }
    for (auto& [token, fn] : hooks) fn();
  }

  /// Registers a hook invoked (once) if abort is requested; returns a
  /// token for removal. When abort was already requested the hook fires
  /// inline before returning — a registration racing `RequestAbort`
  /// would otherwise never fire.
  uint64_t AddAbortHook(std::function<void()> fn) {
    uint64_t token;
    bool fire_now = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      token = next_hook_token_++;
      if (abort_requested_.load(std::memory_order_relaxed)) {
        fire_now = true;
      } else {
        abort_hooks_.emplace(token, std::move(fn));
      }
    }
    if (fire_now) fn();
    return token;
  }

  void RemoveAbortHook(uint64_t token) {
    std::lock_guard<std::mutex> lock(mu_);
    abort_hooks_.erase(token);
  }

  /// --- Read/write bookkeeping (maintained by Database) -----------------

  /// Items read at this site.
  const std::set<ItemId>& read_set() const { return read_set_; }
  /// Items written at this site.
  const std::set<ItemId>& write_set() const { return write_set_; }

  /// Value observed by the FIRST read of each item at this site (later
  /// reads may see the transaction's own writes). Used by the
  /// read-consistency checker.
  const std::map<ItemId, Value>& reads_observed() const {
    return reads_observed_;
  }
  /// Final value installed per written item.
  const std::map<ItemId, Value>& writes_final() const {
    return writes_final_;
  }

  std::string DebugString() const;

 private:
  friend class Database;

  struct UndoEntry {
    ItemId item;
    Value old_value;
  };

  GlobalTxnId id_;
  TxnKind kind_;
  SimTime start_time_;
  int64_t arrival_seq_;
  std::atomic<TxnState> state_{TxnState::kActive};
  std::atomic<bool> backedge_pending_{false};
  std::atomic<bool> pinned_{false};

  /// Guards the abort-hook map and orders `abort_reason_` before the
  /// `abort_requested_` flip.
  std::mutex mu_;
  std::atomic<bool> abort_requested_{false};
  Status abort_reason_;
  uint64_t next_hook_token_ = 0;
  std::map<uint64_t, std::function<void()>> abort_hooks_;

  std::set<ItemId> read_set_;
  std::set<ItemId> write_set_;
  std::map<ItemId, Value> reads_observed_;
  std::map<ItemId, Value> writes_final_;
  std::vector<UndoEntry> undo_log_;
};

using TxnPtr = std::shared_ptr<Transaction>;

}  // namespace lazyrep::storage

#endif  // LAZYREP_STORAGE_TRANSACTION_H_
