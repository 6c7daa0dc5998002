#include "core/engine_backedge.h"

namespace lazyrep::core {

runtime::Co<Status> BackEdgeEngine::ExecutePrimary(
    GlobalTxnId id, const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunPrimaryAtHome(txn, spec, &writes);
  if (!st.ok()) co_return st;

  std::vector<SiteId> targets =
      ctx_.routing->BackedgeTargets(ctx_.site, writes);
  if (targets.empty()) {
    // §4.1: transactions without backedge subtransactions run exactly as
    // in DAG(WT).
    co_return co_await CommitLazily(txn, id, writes);
  }

  // Eager backedge path (§4.1 steps 1-3): hold locks, send the backedge
  // subtransaction to the farthest target, wait for the special secondary
  // subtransaction to come back through the tree.
  ++backedge_txns_;
  const graph::Tree& tree = *ctx_.routing->tree();
  SiteId farthest = targets[0];
  std::vector<SiteId> path = tree.PathDown(farthest, ctx_.site);
  path.pop_back();  // Exclude the origin itself.

  txn->set_backedge_pending(true);
  PendingPrimary pending;
  pending.txn = txn;
  pending.writes = writes;
  pending.path_sites = path;
  pending.outcome = std::make_shared<runtime::OneShot<bool>>(ctx_.rt);
  std::shared_ptr<runtime::OneShot<bool>> outcome = pending.outcome;
  pending_.emplace(id, std::move(pending));

  uint64_t hook =
      txn->AddAbortHook([outcome] { outcome->TryFire(false); });

  BackedgeStart start;
  start.origin = id;
  start.origin_site = ctx_.site;
  start.writes = WritesFor(farthest, Routing::Scope::kPath, writes);
  ctx_.net->Post(ctx_.site, farthest, ProtocolMessage(std::move(start)));

  bool committed = co_await outcome->Wait();
  txn->RemoveAbortHook(hook);
  if (committed) co_return Status::OK();

  // Chosen as a deadlock victim (Example 4.1) or a participant voted no.
  auto it = pending_.find(id);
  LAZYREP_CHECK(it != pending_.end());
  PendingPrimary pp = std::move(it->second);
  pending_.erase(it);
  co_return co_await AbortPendingPrimary(id, std::move(pp));
}

runtime::Co<Status> BackEdgeEngine::AbortPendingPrimary(GlobalTxnId id,
                                                    PendingPrimary pp) {
  tombstones_.insert(id);
  for (SiteId s : pp.path_sites) {
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(BackedgeAbort{id}));
  }
  Status reason = pp.txn->abort_reason();
  if (reason.ok()) reason = Status::ExternalAbort("backedge victim");
  co_await ctx_.db->Abort(pp.txn);
  co_return reason;
}

void BackEdgeEngine::OnMessage(ProtocolNetwork::Envelope env) {
  if (std::holds_alternative<SecondaryUpdate>(env.payload)) {
    DagWtEngine::OnMessage(std::move(env));
  } else if (auto* start = std::get_if<BackedgeStart>(&env.payload)) {
    // The farthest target runs its proxy and starts the special, exactly
    // as a path site runs and relays one.
    SecondaryUpdate special;
    special.origin = start->origin;
    special.writes = std::move(start->writes);
    special.is_special = true;
    special.origin_site = start->origin_site;
    SpawnCounted(ExecuteSpecialLocally(std::move(special)));
  } else if (auto* abort = std::get_if<BackedgeAbort>(&env.payload)) {
    if (abort->origin.origin_site == ctx_.site) {
      HandleBackedgeAbortAtOrigin(abort->origin);
    } else {
      HandleBackedgeAbortAtPathSite(abort->origin);
    }
  } else if (auto* prepare = std::get_if<TpcPrepare>(&env.payload)) {
    // Participant: the proxy has executed and holds its locks; vote, and
    // pin a yes-voted proxy so victim selection cannot break the promise.
    auto it = proxies_.find(prepare->origin);
    const bool yes =
        it != proxies_.end() && !it->second.txn->abort_requested();
    if (yes) it->second.txn->set_pinned(true);
    ctx_.net->Post(ctx_.site, env.src,
                   ProtocolMessage(TpcVote{prepare->origin, yes}));
  } else if (auto* decision = std::get_if<TpcDecision>(&env.payload)) {
    SpawnCounted(HandleDecision(std::move(*decision)));
  } else if (!OnTpcReply(env.payload)) {
    LAZYREP_CHECK(false) << "unexpected message kind for BackEdge";
  }
}

runtime::Co<bool> BackEdgeEngine::ExecuteProxy(
    GlobalTxnId origin, SiteId origin_site,
    const std::vector<WriteRecord>& writes) {
  storage::TxnPtr txn = ctx_.db->Begin(origin, storage::TxnKind::kRemoteProxy);
  txn->set_backedge_pending(true);
  Proxy proxy;
  proxy.txn = txn;
  proxy.executing = true;
  proxies_.emplace(origin, proxy);
  // If this proxy is victimized, the whole global transaction dies: tell
  // the origin, which broadcasts aborts along the path.
  txn->AddAbortHook([this, origin, origin_site] {
    ctx_.net->Post(ctx_.site, origin_site,
                   ProtocolMessage(BackedgeAbort{origin}));
  });

  bool applied_any = false;
  bool ok = co_await ApplySecondaryWrites(txn, writes, &applied_any);
  if (!ok) {
    // Victimized mid-execution; roll back. The abort hook has already
    // notified the origin.
    proxies_.erase(origin);
    tombstones_.insert(origin);
    co_await ctx_.db->Abort(txn);
    co_return false;
  }
  auto it = proxies_.find(origin);
  LAZYREP_CHECK(it != proxies_.end());
  it->second.executing = false;
  it->second.applied_any = applied_any;
  co_return true;
}

runtime::Co<void> BackEdgeEngine::ApplySpecial(SecondaryArrival arrival) {
  // Specials commit through the 2PC at the origin, always with a
  // per-commit sync; one closing a batch still seals any deferred
  // lazy-path syncs.
  if (GroupCommit() && arrival.batch_end) ctx_.db->SyncWal();
  if (arrival.update.origin_site == ctx_.site) {
    co_await CommitPendingPrimary(std::move(arrival.update));
  } else {
    co_await ExecuteSpecialLocally(std::move(arrival.update));
  }
}

runtime::Co<void> BackEdgeEngine::ExecuteSpecialLocally(SecondaryUpdate update) {
  // A tombstoned origin aborted; downstream sites were told directly.
  if (tombstones_.count(update.origin) > 0) co_return;
  if (!co_await ExecuteProxy(update.origin, update.origin_site,
                             update.writes)) {
    co_return;
  }
  // Forward without committing (§4.1 step 2); locks stay held until the
  // 2PC decision. The hop carries only the writes replicated on the rest
  // of the path (`Scope::kPath`); the hop into the origin carries none.
  SiteId next =
      ctx_.routing->tree()->ChildToward(ctx_.site, update.origin_site);
  ctx_.net->Post(
      ctx_.site, next,
      ProtocolMessage(*ProjectFor(next, Routing::Scope::kPath, update)));
}

runtime::Co<void> BackEdgeEngine::CommitPendingPrimary(SecondaryUpdate update) {
  auto it = pending_.find(update.origin);
  if (it == pending_.end() || it->second.txn->abort_requested()) {
    // Victimized before its special arrived; the primary coroutine does
    // (or did) the cleanup.
    co_return;
  }
  PendingPrimary& pp = it->second;
  storage::TxnPtr txn = pp.txn;
  // From here the outcome is decided by the votes, not by victim
  // selection.
  txn->set_pinned(true);

  // §4.1 step 3: commit Ti and S1..Sj atomically with 2PC. The proxies
  // already hold their writes, so the prepares carry none.
  if (!co_await CollectVotes(update.origin, pp.path_sites, nullptr)) {
    txn->set_pinned(false);
    txn->RequestAbort(
        Status::ExternalAbort("backedge participant voted no"));
    // The abort hook fires the outcome cell; the primary coroutine
    // broadcasts BackedgeAbort and rolls back.
    co_return;
  }

  std::vector<WriteRecord> writes = pp.writes;
  std::vector<SiteId> path = pp.path_sites;
  std::shared_ptr<runtime::OneShot<bool>> outcome = pp.outcome;
  GlobalTxnId id = update.origin;
  // RYW note (docs/MVCC.md): path sites committing via the 2PC special
  // do not see the origin's commit stamp — their applied tracker advances
  // on later lazy updates from this origin; the floor wait is
  // conservative. §4.1 step 4: descendants are updated lazily per DAG(WT).
  Status st = co_await CommitLazily(txn, id, writes);
  LAZYREP_CHECK(st.ok()) << st.ToString();
  BroadcastDecision(id, /*commit=*/true, path);
  pending_.erase(id);
  outcome->TryFire(true);
}

void BackEdgeEngine::HandleBackedgeAbortAtOrigin(const GlobalTxnId& origin) {
  auto it = pending_.find(origin);
  if (it == pending_.end()) return;  // Already resolved.
  storage::TxnPtr txn = it->second.txn;
  if (txn->pinned()) return;  // 2PC underway; votes decide.
  txn->RequestAbort(
      Status::ExternalAbort("backedge subtransaction victimized"));
}

void BackEdgeEngine::HandleBackedgeAbortAtPathSite(
    const GlobalTxnId& origin) {
  tombstones_.insert(origin);
  auto it = proxies_.find(origin);
  if (it == proxies_.end()) return;
  if (it->second.executing) {
    // The executing coroutine observes the abort and rolls back itself.
    it->second.txn->RequestAbort(
        Status::ExternalAbort("origin transaction aborted"));
    return;
  }
  SpawnCounted(RollbackProxy(origin, /*tombstone=*/true));
}

runtime::Co<void> BackEdgeEngine::RollbackProxy(GlobalTxnId origin,
                                            bool tombstone) {
  auto it = proxies_.find(origin);
  if (it == proxies_.end()) co_return;
  storage::TxnPtr txn = it->second.txn;
  proxies_.erase(it);
  if (tombstone) tombstones_.insert(origin);
  if (txn->state() == storage::TxnState::kActive) {
    co_await ctx_.db->Abort(txn);
  }
}

runtime::Co<void> BackEdgeEngine::HandleDecision(TpcDecision decision) {
  auto it = proxies_.find(decision.origin);
  LAZYREP_CHECK(decision.commit) << "aborts travel as BackedgeAbort";
  LAZYREP_CHECK(it != proxies_.end())
      << "yes-voted proxy must exist at decision time";
  Proxy proxy = it->second;
  proxies_.erase(it);
  // A pinned proxy can still carry a stale abort_requested flag if a
  // victim attempt raced the vote; the global decision wins.
  co_await FinishPrepared(decision.origin, proxy.txn, /*commit=*/true,
                          proxy.applied_any);
}

void BackEdgeEngine::OnCrash() {
  // A crash wipes the volatile lock/undo state behind every unpinned
  // proxy, so the global transactions they belong to cannot commit: mark
  // them aborted (the abort hook notifies the origin, which broadcasts
  // BackedgeAbort along the path — presumed abort). Executing proxies are
  // rolled back by their driving coroutine; idle ones need an explicit
  // rollback. Pinned proxies voted yes and are in durably-prepared 2PC
  // state: they survive untouched and commit/abort with the decision.
  std::vector<GlobalTxnId> idle;
  for (auto& [origin, proxy] : proxies_) {
    if (proxy.txn->pinned()) continue;
    proxy.txn->RequestAbort(Status::ExternalAbort("site crashed"));
    if (!proxy.executing) idle.push_back(origin);
  }
  for (const GlobalTxnId& origin : idle) {
    SpawnCounted(RollbackProxy(origin, /*tombstone=*/true));
  }
}

bool BackEdgeEngine::ProtocolIdle() const {
  return DagWtEngine::ProtocolIdle() && pending_.empty() && proxies_.empty();
}

void BackEdgeEngine::ExportObs() {
  DagWtEngine::ExportObs();
  ctx_.obs
      ->GetCounter("lazyrep_engine_backedge_txns_total",
                   {{"site", std::to_string(ctx_.site)},
                    {"protocol", ObsProtocol()}},
                   "Primaries that took the eager backedge path")
      ->Increment(backedge_txns_);
}

}  // namespace lazyrep::core
