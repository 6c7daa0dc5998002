#include "storage/lock_manager.h"

#include <algorithm>
#include <utility>

namespace lazyrep::storage {

LockManager::LockManager(runtime::Runtime* rt, Config config)
    : rt_(rt), config_(std::move(config)) {
  LAZYREP_CHECK_GT(config_.stripes, 0);
  stripes_.reserve(static_cast<size_t>(config_.stripes));
  for (int i = 0; i < config_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

bool LockManager::HoldsLocked(const LockState& ls, const Transaction* txn,
                              LockMode mode) {
  for (const auto& [holder, held_mode] : ls.holders) {
    if (holder == txn) {
      return held_mode == LockMode::kExclusive || mode == LockMode::kShared;
    }
  }
  return false;
}

bool LockManager::Holds(const Transaction* txn, ItemId item,
                        LockMode mode) const {
  Stripe& stripe = StripeFor(item);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.table.find(item);
  if (it == stripe.table.end()) return false;
  return HoldsLocked(it->second, txn, mode);
}

std::vector<TxnPtr> LockManager::BlockingHolders(const Transaction* txn,
                                                 ItemId item,
                                                 LockMode mode) const {
  std::vector<TxnPtr> out;
  Stripe& stripe = StripeFor(item);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.table.find(item);
  if (it == stripe.table.end()) return out;
  for (const auto& [holder, held_mode] : it->second.holders) {
    if (holder == txn) continue;
    if (!Compatible(held_mode, mode) || !Compatible(mode, held_mode)) {
      // Taken under the stripe mutex: a holder in the table has not yet
      // released, so its owner still references it.
      out.push_back(holder->shared_from_this());
    }
  }
  return out;
}

size_t LockManager::HeldCount(const Transaction* txn) const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  auto it = held_.find(txn);
  return it == held_.end() ? 0 : it->second.size();
}

bool LockManager::CanGrant(const LockState& ls, const Transaction* txn,
                           LockMode mode, bool upgrade) const {
  if (upgrade) {
    // Upgrade S -> X: grantable only when `txn` is the sole holder.
    return ls.holders.size() == 1 && ls.holders[0].first == txn;
  }
  for (const auto& [holder, held_mode] : ls.holders) {
    if (holder == txn) continue;  // Shouldn't happen for non-upgrades.
    if (!Compatible(held_mode, mode)) return false;
  }
  return true;
}

bool LockManager::MustDie(const LockState& ls, const Transaction* txn,
                          LockMode mode, bool upgrade) const {
  // The self-die rule governs local (primary) transactions only. A
  // secondary or remote-proxy subtransaction acts for an origin that has
  // already committed (or is pending a global decision); killing it here
  // would bypass the engine's victim path — `RequestAbort` and its hooks
  // are what notify the origin — and strand the global transaction. Those
  // requesters wait; the lock timeout remains their deadlock backstop.
  if (txn->kind() != TxnKind::kPrimary || !txn->CanBeVictim()) return false;
  for (const auto& [holder, held_mode] : ls.holders) {
    if (holder == txn) continue;
    bool conflicts = upgrade ? true : !Compatible(held_mode, mode);
    if (conflicts && holder->arrival_seq() < txn->arrival_seq()) {
      return true;  // Younger than a conflicting holder: die, don't wait.
    }
  }
  return false;
}

void LockManager::GrantNow(LockState* ls, Transaction* txn, LockMode mode,
                           bool upgrade) {
  if (upgrade) {
    LAZYREP_CHECK_EQ(ls->holders.size(), 1u);
    LAZYREP_CHECK(ls->holders[0].first == txn);
    ls->holders[0].second = LockMode::kExclusive;
    return;  // Already tracked in held_.
  }
  ls->holders.emplace_back(txn, mode);
}

void LockManager::GrantLocked(
    Stripe& stripe, ItemId item,
    std::vector<std::shared_ptr<Waiter>>* granted) {
  // Phase 1 of the two-phase grant: decide and record every grant while
  // holding the stripe mutex. Phase 2 (`FireGranted`) fires the waiter
  // cells only after the mutex is dropped — a fired waiter may re-enter
  // the manager (Acquire on fresh items, ReleaseAll on this item), so
  // firing under the lock would self-deadlock under threads and couple
  // wake-ups to table iteration under sim.
  auto it = stripe.table.find(item);
  if (it == stripe.table.end()) return;
  LockState& ls = it->second;
  if (config_.schedule_pick && config_.grant == GrantPolicy::kImmediate) {
    // Schedule exploration: under the immediate policy the scan order
    // among grantable waiters is a scheduling choice (different orders
    // can even grant different sets — e.g. an S and an X racing for a
    // free item), so visit them in policy-chosen order until no waiter
    // is grantable.
    for (;;) {
      std::vector<size_t> grantable;
      for (size_t i = 0; i < ls.queue.size(); ++i) {
        const Waiter& w = *ls.queue[i];
        if (CanGrant(ls, w.txn, w.mode, w.is_upgrade)) {
          grantable.push_back(i);
        }
      }
      if (grantable.empty()) break;
      size_t i = grantable[config_.schedule_pick(grantable.size())];
      std::shared_ptr<Waiter> w = ls.queue[i];
      ls.queue.erase(ls.queue.begin() + static_cast<ptrdiff_t>(i));
      GrantOne(&ls, item, w);
      granted->push_back(std::move(w));
    }
  } else {
    size_t i = 0;
    while (i < ls.queue.size()) {
      std::shared_ptr<Waiter> w = ls.queue[i];
      if (!CanGrant(ls, w->txn, w->mode, w->is_upgrade)) {
        if (config_.grant == GrantPolicy::kFifo) break;
        // Immediate policy: later compatible waiters may still proceed.
        ++i;
        continue;
      }
      ls.queue.erase(ls.queue.begin() + static_cast<ptrdiff_t>(i));
      GrantOne(&ls, item, w);
      granted->push_back(std::move(w));
    }
  }
}

void LockManager::FireGranted(std::vector<std::shared_ptr<Waiter>> granted) {
  // The batch is granted at one instant; its wake-up order is another
  // legal-schedule degree of freedom the policy may explore.
  if (config_.schedule_pick && granted.size() > 1) {
    for (size_t i = granted.size(); i > 1; --i) {
      std::swap(granted[i - 1], granted[config_.schedule_pick(i)]);
    }
  }
  for (const std::shared_ptr<Waiter>& w : granted) {
    w->cell.TryFire(LockOutcome::kGranted);
  }
}

void LockManager::GrantOne(LockState* ls, ItemId item,
                           const std::shared_ptr<Waiter>& w) {
  w->linked = false;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    waiting_on_.erase(w->txn);
    held_[w->txn].insert(item);
  }
  GrantNow(ls, w->txn, w->mode, w->is_upgrade);
  double wait_ms = ToMillis(rt_->Now() - w->enqueue_time);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.wait_time_ms.Add(wait_ms);
  }
  if (wait_hist_ != nullptr) wait_hist_->Observe(wait_ms);
}

bool LockManager::Unlink(const std::shared_ptr<Waiter>& w) {
  std::vector<std::shared_ptr<Waiter>> granted;
  {
    Stripe& stripe = StripeFor(w->item);
    std::lock_guard<std::mutex> lock(stripe.mu);
    if (!w->linked) return false;  // Grant/abort/timeout won the race.
    w->linked = false;
    auto it = stripe.table.find(w->item);
    LAZYREP_CHECK(it != stripe.table.end());
    auto& q = it->second.queue;
    auto pos = std::find(q.begin(), q.end(), w);
    LAZYREP_CHECK(pos != q.end());
    q.erase(pos);
    {
      std::lock_guard<std::mutex> meta_lock(meta_mu_);
      waiting_on_.erase(w->txn);
    }
    // Removing a blocked head may unblock later compatible waiters.
    GrantLocked(stripe, w->item, &granted);
  }
  FireGranted(std::move(granted));
  return true;
}

LockManager::AcquireDecision LockManager::TryAcquireOrEnqueue(
    Transaction* txn, ItemId item, LockMode mode,
    std::shared_ptr<Waiter>* out) {
  Stripe& stripe = StripeFor(item);
  std::lock_guard<std::mutex> lock(stripe.mu);
  LockState& ls = stripe.table[item];
  if (HoldsLocked(ls, txn, mode)) {
    stats_.immediate_grants.fetch_add(1, std::memory_order_relaxed);
    return AcquireDecision::kGrantedNow;
  }
  bool upgrade =
      mode == LockMode::kExclusive && HoldsLocked(ls, txn, LockMode::kShared);

  // Under the FIFO policy a fresh request queues behind existing waiters
  // even when compatible with the current holders; under the immediate
  // policy holder-compatibility suffices.
  bool may_bypass_queue = upgrade || ls.queue.empty() ||
                          config_.grant == GrantPolicy::kImmediate;
  if (may_bypass_queue && CanGrant(ls, txn, mode, upgrade)) {
    GrantNow(&ls, txn, mode, upgrade);
    {
      std::lock_guard<std::mutex> meta_lock(meta_mu_);
      held_[txn].insert(item);
    }
    stats_.immediate_grants.fetch_add(1, std::memory_order_relaxed);
    return AcquireDecision::kGrantedNow;
  }

  if (config_.policy == DeadlockPolicy::kWaitDie &&
      MustDie(ls, txn, mode, upgrade)) {
    return AcquireDecision::kDied;
  }

  // Block.
  {
    std::lock_guard<std::mutex> meta_lock(meta_mu_);
    LAZYREP_CHECK(waiting_on_.find(txn) == waiting_on_.end())
        << "transaction already has a pending lock request";
    auto w = std::make_shared<Waiter>(rt_, txn, item, mode, upgrade);
    w->enqueue_time = rt_->Now();
    // Upgrades go to the front: the holder blocks everything behind it
    // anyway, and draining it first shortens the queue.
    if (upgrade) {
      ls.queue.push_front(w);
    } else {
      ls.queue.push_back(w);
    }
    waiting_on_.emplace(txn, w);
    *out = std::move(w);
  }
  return AcquireDecision::kQueued;
}

runtime::Co<LockOutcome> LockManager::Acquire(Transaction* txn, ItemId item,
                                          LockMode mode) {
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  if (txn->abort_requested()) co_return LockOutcome::kAborted;

  std::shared_ptr<Waiter> w;
  switch (TryAcquireOrEnqueue(txn, item, mode, &w)) {
    case AcquireDecision::kGrantedNow:
      co_return LockOutcome::kGranted;
    case AcquireDecision::kDied:
      stats_.die_aborts.fetch_add(1, std::memory_order_relaxed);
      if (die_aborts_counter_ != nullptr) die_aborts_counter_->Increment();
      co_return LockOutcome::kDied;
    case AcquireDecision::kQueued:
      break;
  }

  stats_.waits.fetch_add(1, std::memory_order_relaxed);
  if (waits_counter_ != nullptr) waits_counter_->Increment();
  if (on_wait_) on_wait_(*txn, item);

  // The abort hook fires inline when abort was already requested (the
  // mark can land between the fast-path check above and here).
  uint64_t hook = txn->AddAbortHook([this, w] {
    if (!Unlink(w)) return;
    stats_.wait_aborts.fetch_add(1, std::memory_order_relaxed);
    if (wait_aborts_counter_ != nullptr) wait_aborts_counter_->Increment();
    w->cell.TryFire(LockOutcome::kAborted);
  });
  rt_->ScheduleCallback(config_.wait_timeout, [this, w] {
    if (!Unlink(w)) return;
    stats_.timeouts.fetch_add(1, std::memory_order_relaxed);
    if (timeouts_counter_ != nullptr) timeouts_counter_->Increment();
    if (on_timeout_) on_timeout_(*w->txn, w->item);
    w->cell.TryFire(LockOutcome::kTimeout);
  });

  if (config_.policy == DeadlockPolicy::kLocalDetection) {
    DetectAndResolve(txn);
  }

  LockOutcome outcome = co_await w->cell.Wait();
  txn->RemoveAbortHook(hook);
  co_return outcome;
}

void LockManager::ReleaseAll(Transaction* txn) {
  std::set<ItemId> items;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    LAZYREP_CHECK(waiting_on_.find(txn) == waiting_on_.end())
        << "releasing a transaction with a pending lock request";
    auto it = held_.find(txn);
    if (it == held_.end()) return;
    items = std::move(it->second);
    held_.erase(it);
  }
  for (ItemId item : items) {
    std::vector<std::shared_ptr<Waiter>> granted;
    {
      Stripe& stripe = StripeFor(item);
      std::lock_guard<std::mutex> lock(stripe.mu);
      auto tit = stripe.table.find(item);
      LAZYREP_CHECK(tit != stripe.table.end());
      LockState& ls = tit->second;
      auto pos =
          std::find_if(ls.holders.begin(), ls.holders.end(),
                       [txn](const auto& h) { return h.first == txn; });
      LAZYREP_CHECK(pos != ls.holders.end());
      ls.holders.erase(pos);
      GrantLocked(stripe, item, &granted);
    }
    FireGranted(std::move(granted));
  }
}

void LockManager::DetectAndResolve(Transaction* waiter_txn) {
  // Depth-first search over the local waits-for graph: a waiting
  // transaction points at every holder blocking its pending request.
  // kLocalDetection is restricted to single-worker runs (System::Create
  // rejects it with workers > 1): the traversal below snapshots the
  // graph edge by edge and assumes it does not move underneath.
  std::vector<Transaction*> path;
  std::set<const Transaction*> on_path;
  std::set<const Transaction*> visited;

  // Iterative DFS with explicit stack of (txn, next-blocker-index).
  struct Frame {
    Transaction* txn;
    std::vector<TxnPtr> blockers;
    size_t next = 0;
  };
  std::vector<Frame> stack;

  auto blockers_of = [this](Transaction* t) -> std::vector<TxnPtr> {
    ItemId item;
    LockMode mode;
    {
      std::lock_guard<std::mutex> lock(meta_mu_);
      auto wit = waiting_on_.find(t);
      if (wit == waiting_on_.end()) return {};
      item = wit->second->item;
      mode = wit->second->mode;
    }
    return BlockingHolders(t, item, mode);
  };

  stack.push_back({waiter_txn, blockers_of(waiter_txn), 0});
  on_path.insert(waiter_txn);
  path.push_back(waiter_txn);
  visited.insert(waiter_txn);

  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next >= f.blockers.size()) {
      on_path.erase(f.txn);
      path.pop_back();
      stack.pop_back();
      continue;
    }
    Transaction* next = f.blockers[f.next++].get();
    if (on_path.count(next)) {
      // Cycle: everything on the path from `next` onward.
      std::vector<Transaction*> cycle;
      bool in_cycle = false;
      for (Transaction* t : path) {
        if (t == next) in_cycle = true;
        if (in_cycle) cycle.push_back(t);
      }
      stats_.detected_deadlocks.fetch_add(1, std::memory_order_relaxed);
      if (deadlocks_counter_ != nullptr) deadlocks_counter_->Increment();
      Transaction* victim = PickDeadlockVictim(cycle);
      if (victim != nullptr) {
        victim->RequestAbort(Status::DeadlockAbort("local WFG cycle"));
      }
      return;  // Resolve one cycle per block; others resolve on retry.
    }
    if (visited.count(next)) continue;
    visited.insert(next);
    on_path.insert(next);
    path.push_back(next);
    stack.push_back({next, blockers_of(next), 0});
  }
}

Transaction* LockManager::PickDeadlockVictim(
    const std::vector<Transaction*>& cycle) {
  // Paper-faithful victim preferences (§4.1, Example 4.1 and the fairness
  // discussion in §2): (1) a backedge-pending primary; (2) the
  // latest-arriving primary; never a secondary subtransaction.
  Transaction* latest_primary = nullptr;
  for (Transaction* t : cycle) {
    if (!t->CanBeVictim()) continue;
    if (t->backedge_pending()) return t;
    if (latest_primary == nullptr ||
        t->arrival_seq() > latest_primary->arrival_seq()) {
      latest_primary = t;
    }
  }
  return latest_primary;
}

}  // namespace lazyrep::storage
