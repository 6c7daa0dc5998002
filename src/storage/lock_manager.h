#ifndef LAZYREP_STORAGE_LOCK_MANAGER_H_
#define LAZYREP_STORAGE_LOCK_MANAGER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/registry.h"
#include "runtime/primitives.h"
#include "runtime/runtime.h"
#include "storage/transaction.h"

namespace lazyrep::storage {

enum class LockMode { kShared, kExclusive };

/// Result of a lock request.
enum class LockOutcome {
  kGranted,
  /// The wait exceeded the deadlock timeout (the paper's mechanism for
  /// both local and global deadlocks, §5: 50 ms). The caller decides the
  /// victim: primaries abort themselves; secondaries abort a blocking
  /// holder and retry (§2, §4.1).
  kTimeout,
  /// The waiting transaction was marked for abort while queued (external
  /// victim selection).
  kAborted,
  /// Wait-die (DeadlockPolicy::kWaitDie): the requester is younger than
  /// a conflicting holder, so it dies instead of waiting. The caller
  /// aborts the transaction (and may retry it with its original
  /// timestamp — arrival_seq is assigned at Begin, so a retried
  /// transaction is a fresh, younger one here; starvation is bounded by
  /// the workload's retry backoff).
  kDied,
};

/// When a new request may be granted.
enum class GrantPolicy {
  /// Grant whenever compatible with the current *holders* (readers never
  /// queue behind a waiting writer). This is the common main-memory-DBMS
  /// behaviour and the default; it minimizes false blocking at the cost
  /// of potential writer starvation (bounded here by the wait timeout).
  kImmediate,
  /// Strict FIFO: a request waits behind any earlier conflicting waiter.
  /// Starvation-free but creates more blocking (ablation option).
  kFifo,
};

/// How local deadlocks are resolved.
enum class DeadlockPolicy {
  /// Timeout only — what the paper's implementation used.
  kTimeoutOnly,
  /// Additionally run local waits-for cycle detection on each block and
  /// abort a victim immediately (timeout remains as a backstop for
  /// distributed deadlocks). Extension used for ablation. Single-worker
  /// runs only (the traversal assumes a frozen waits-for graph).
  kLocalDetection,
  /// Wait-die prevention: a requester blocked by an *older* conflicting
  /// holder (smaller arrival_seq) dies immediately (`kDied`) instead of
  /// waiting; one blocked only by younger holders waits. Old-waits-for-
  /// young edges cannot form a cycle, so local holder-cycles are
  /// impossible without any graph traversal — the right shape for
  /// multi-worker sites. Only local primary transactions self-die:
  /// secondaries, remote proxies, and pinned 2PC participants always
  /// wait, because protocol victim rules (`RequestAbort`, whose hooks
  /// notify the origin site) are the only sanctioned way to kill a
  /// subtransaction. The timeout stays armed as the backstop for
  /// distributed deadlocks and for waits-behind-waiters chains under
  /// kFifo.
  kWaitDie,
};

/// Strict two-phase locking manager for one site.
///
/// * Shared/exclusive item locks with upgrade (S→X when sole holder;
///   upgrades queue at the front otherwise).
/// * Grant order follows `Config::grant`. The default, `kImmediate`,
///   grants any request compatible with the current holders, so readers
///   may pass a waiting writer (starvation is bounded only by the wait
///   timeout); `kFifo` makes a request wait behind earlier conflicting
///   waiters instead.
/// * Waits are bounded by `Config::wait_timeout`; expiry resumes the
///   waiter with `kTimeout` (the request is dequeued — retry re-queues).
/// * `Transaction::RequestAbort` unlinks any queued request of that
///   transaction and resumes it with `kAborted`.
///
/// No lock is released before `ReleaseAll` (strictness): a transaction's
/// locks are freed only at commit or after rollback completes.
///
/// Concurrency: the lock table is striped by key hash into
/// `Config::stripes` cache-line-aligned stripes, each with its own
/// mutex, so worker lanes contend only when they touch the same stripe.
/// The two-phase acquire (decide-and-record under the stripe mutex,
/// fire waiter cells after it is dropped) keeps strict-2PL semantics
/// identical to the single-table manager. Per-transaction bookkeeping
/// (`held_`, `waiting_on_`) lives under one `meta_mu_`; lock order is
/// stripe → meta, never the reverse, and no mutex is ever held across a
/// `TryFire`, `RequestAbort`, or suspension point. Under `kSim` every
/// mutex is uncontended and the call sequence is byte-identical to the
/// pre-striping manager, so sim schedules are unchanged.
class LockManager {
 public:
  struct Config {
    Duration wait_timeout = Millis(50);
    DeadlockPolicy policy = DeadlockPolicy::kTimeoutOnly;
    GrantPolicy grant = GrantPolicy::kImmediate;
    /// Number of hash stripes in the lock table (>= 1). Striping is
    /// schedule-neutral — every access is keyed, nothing iterates the
    /// table — so the default is safe for deterministic sim runs.
    int stripes = 8;
    /// Schedule-exploration hook (lazychk's SchedulePolicy): a uniform
    /// pick in [0, n) used to randomize which of the currently-grantable
    /// waiters is granted next (kImmediate — where the scan order is a
    /// scheduling choice, not a fairness guarantee) and the wake-up
    /// order within one grant batch. Null (the default) keeps the
    /// historical deterministic scan byte-for-byte. Composes with
    /// stripes: grant scans are per-item, so the pick sequence is
    /// independent of the stripe count. Sim runtime only (the pick RNG
    /// is unsynchronized).
    std::function<size_t(size_t)> schedule_pick;
  };

  /// Counters are relaxed atomics (bumped from any lane); the wait-time
  /// summary is guarded by `stats_mu_`.
  struct Stats {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> immediate_grants{0};
    std::atomic<uint64_t> waits{0};
    std::atomic<uint64_t> timeouts{0};
    std::atomic<uint64_t> wait_aborts{0};
    /// Wait-die victims (kDied outcomes) — kept separate from timeouts
    /// and wait_aborts so the two deadlock policies are distinguishable.
    std::atomic<uint64_t> die_aborts{0};
    std::atomic<uint64_t> detected_deadlocks{0};
    Summary wait_time_ms;
  };

  LockManager(runtime::Runtime* rt, Config config);

  /// Optional event hooks (tracing): invoked when a request blocks and
  /// when a wait times out.
  using LockEventHook =
      std::function<void(const Transaction& txn, ItemId item)>;
  void SetEventHooks(LockEventHook on_wait, LockEventHook on_timeout) {
    on_wait_ = std::move(on_wait);
    on_timeout_ = std::move(on_timeout);
  }

  /// Optional metrics sink: live counters mirroring `Stats` plus a
  /// wait-time histogram (observed at grant, like `Stats::wait_time_ms`),
  /// labelled with this manager's site. Set before traffic starts.
  void SetMetrics(obs::MetricsRegistry* registry, SiteId site) {
    if (registry == nullptr) return;
    obs::Labels labels{{"site", std::to_string(site)}};
    waits_counter_ = registry->GetCounter(
        "lazyrep_lock_waits_total", labels,
        "Lock requests that blocked behind a conflicting holder");
    timeouts_counter_ = registry->GetCounter(
        "lazyrep_lock_timeouts_total", labels,
        "Lock waits that expired (deadlock timeout)");
    wait_aborts_counter_ = registry->GetCounter(
        "lazyrep_lock_wait_aborts_total", labels,
        "Queued requests cancelled by an external abort");
    die_aborts_counter_ = registry->GetCounter(
        "lazyrep_lock_die_aborts_total", labels,
        "Requests killed by wait-die (younger than a conflicting holder)");
    deadlocks_counter_ = registry->GetCounter(
        "lazyrep_lock_deadlocks_detected_total", labels,
        "Local waits-for cycles found by detection");
    wait_hist_ = registry->GetHistogram(
        "lazyrep_lock_wait_ms", labels,
        "Time a granted request spent queued (ms)");
  }

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `mode` on `item` for `txn`, waiting if necessary.
  /// Re-entrant: succeeds immediately when the transaction already holds
  /// a sufficient lock.
  runtime::Co<LockOutcome> Acquire(Transaction* txn, ItemId item,
                               LockMode mode);

  /// Releases every lock held by `txn` and re-runs grant scheduling on
  /// the affected items. The transaction must not have a queued request.
  void ReleaseAll(Transaction* txn);

  /// True when `txn` holds `item` in a mode at least as strong as `mode`.
  bool Holds(const Transaction* txn, ItemId item, LockMode mode) const;

  /// Holders whose lock on `item` conflicts with a `mode` request by
  /// `txn`. This is what the BackEdge victim rule inspects after a
  /// timeout. Each comes with a reference that keeps it alive: with
  /// several worker lanes a holder may finish and be dropped on another
  /// lane as soon as the stripe mutex is released.
  std::vector<TxnPtr> BlockingHolders(const Transaction* txn, ItemId item,
                                      LockMode mode) const;

  /// Number of locks held by `txn`.
  size_t HeldCount(const Transaction* txn) const;

  /// Number of transactions currently blocked in some lock queue.
  size_t waiting_count() const {
    std::lock_guard<std::mutex> lock(meta_mu_);
    return waiting_on_.size();
  }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  int num_stripes() const { return static_cast<int>(stripes_.size()); }

 private:
  struct Waiter {
    Waiter(runtime::Runtime* rt, Transaction* t, ItemId i, LockMode m,
           bool up)
        : txn(t), item(i), mode(m), is_upgrade(up), cell(rt) {}
    Transaction* txn;
    ItemId item;
    LockMode mode;
    bool is_upgrade;
    bool linked = true;  // Guarded by the item's stripe mutex.
    SimTime enqueue_time = 0;
    runtime::OneShot<LockOutcome> cell;
  };

  struct LockState {
    // (txn, mode); all kShared or a single kExclusive entry.
    std::vector<std::pair<Transaction*, LockMode>> holders;
    std::deque<std::shared_ptr<Waiter>> queue;
  };

  /// One lock-table stripe: its mutex and the keys hashing to it, on
  /// their own cache line so lanes hammering different stripes do not
  /// false-share.
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<ItemId, LockState> table;
  };

  static bool Compatible(LockMode held, LockMode requested) {
    return held == LockMode::kShared && requested == LockMode::kShared;
  }

  Stripe& StripeFor(ItemId item) const {
    return *stripes_[static_cast<size_t>(item) % stripes_.size()];
  }

  /// How the lock-free phase of `Acquire` resolved.
  enum class AcquireDecision { kGrantedNow, kQueued, kDied };

  static bool HoldsLocked(const LockState& ls, const Transaction* txn,
                          LockMode mode);
  bool CanGrant(const LockState& ls, const Transaction* txn, LockMode mode,
                bool upgrade) const;
  void GrantNow(LockState* ls, Transaction* txn, LockMode mode,
                bool upgrade);
  /// Decide-and-record phase of `Acquire`: everything up to (and
  /// including) enqueueing a waiter, under the item's stripe mutex. On
  /// kQueued, `*out` is the published waiter.
  AcquireDecision TryAcquireOrEnqueue(Transaction* txn, ItemId item,
                                      LockMode mode,
                                      std::shared_ptr<Waiter>* out);
  /// Wait-die test, stripe mutex held: true when `txn` must die instead
  /// of waiting (younger than some conflicting holder and victimizable).
  bool MustDie(const LockState& ls, const Transaction* txn, LockMode mode,
               bool upgrade) const;
  /// Grant scheduling for one item, stripe mutex held; grants are
  /// recorded in the table and appended to `granted` for the caller to
  /// fire after dropping the mutex.
  void GrantLocked(Stripe& stripe, ItemId item,
                   std::vector<std::shared_ptr<Waiter>>* granted);
  /// Dequeue bookkeeping for one grant inside `GrantLocked` (the waiter
  /// is already removed from `ls->queue`; its cell fires later).
  void GrantOne(LockState* ls, ItemId item,
                const std::shared_ptr<Waiter>& w);
  /// Fires granted cells (optionally shuffled by schedule_pick). Must be
  /// called with no LockManager mutex held.
  void FireGranted(std::vector<std::shared_ptr<Waiter>> granted);
  /// Unlinks `w` from its queue if still linked; returns true when this
  /// call won the race (the winner fires the cell with its outcome).
  bool Unlink(const std::shared_ptr<Waiter>& w);
  void DetectAndResolve(Transaction* waiter_txn);
  Transaction* PickDeadlockVictim(const std::vector<Transaction*>& cycle);

  runtime::Runtime* rt_;
  Config config_;
  Stats stats_;
  /// Guards `stats_.wait_time_ms` (the counters are atomic).
  mutable std::mutex stats_mu_;
  LockEventHook on_wait_;
  LockEventHook on_timeout_;
  // Optional metrics handles (SetMetrics); null when metrics are off.
  obs::Counter* waits_counter_ = nullptr;
  obs::Counter* timeouts_counter_ = nullptr;
  obs::Counter* wait_aborts_counter_ = nullptr;
  obs::Counter* die_aborts_counter_ = nullptr;
  obs::Counter* deadlocks_counter_ = nullptr;
  obs::Histogram* wait_hist_ = nullptr;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// Guards the per-transaction maps below. Lock order: stripe → meta.
  mutable std::mutex meta_mu_;
  std::unordered_map<const Transaction*, std::set<ItemId>> held_;
  // At most one pending request per transaction.
  std::unordered_map<const Transaction*, std::shared_ptr<Waiter>>
      waiting_on_;
};

}  // namespace lazyrep::storage

#endif  // LAZYREP_STORAGE_LOCK_MANAGER_H_
