#include "core/engine_backedge.h"

#include <algorithm>

namespace lazyrep::core {

BackEdgeEngine::BackEdgeEngine(Context ctx)
    : ReplicationEngine(std::move(ctx)), inbox_(ctx_.rt) {}

void BackEdgeEngine::Start() {
  LAZYREP_CHECK(ctx_.routing->tree().has_value());
  if (ctx_.routing->tree()->Parent(ctx_.site) != kInvalidSite) {
    ctx_.rt->SpawnOn(ctx_.machine, Applier());
  }
}

void BackEdgeEngine::ForwardToRelevantChildren(
    const SecondaryUpdate& update) {
  for (SiteId child :
       ctx_.routing->RelevantTreeChildren(ctx_.site, update.writes)) {
    ctx_.net->Post(ctx_.site, child, ProtocolMessage(update));
  }
}

runtime::Co<Status> BackEdgeEngine::ExecutePrimary(
    GlobalTxnId id, const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunLocalTxn(txn, spec, &writes);
  if (!st.ok()) co_return st;

  // Hop to the home lane before touching any engine state: the pending
  // map, tombstones, backedge counters, every network post, and the
  // commit order are all home-lane-confined (no-op under kSim and when
  // the transaction already ran there).
  co_await ctx_.rt->RunOn(ctx_.machine);
  if (txn->abort_requested()) {
    co_await ctx_.db->Abort(txn);
    co_return txn->abort_reason();
  }

  std::vector<SiteId> targets =
      ctx_.routing->BackedgeTargets(ctx_.site, writes);
  if (targets.empty()) {
    // Pure DAG(WT) path: commit and propagate lazily (§4.1 step 4 note:
    // transactions without backedge subtransactions run exactly as in
    // DAG(WT)).
    st = co_await ctx_.db->Commit(txn, [&](int64_t seq) {
      if (writes.empty()) return;
      SecondaryUpdate update;
      update.origin = id;
      update.writes = writes;
      update.origin_site = ctx_.site;
      update.origin_commit_time = ctx_.rt->Now();
      if (ctx_.db->mvcc_enabled()) update.origin_commit_seq = seq + 1;
      RegisterPropagation(id, ctx_.routing->CountReplicaTargets(writes));
      ForwardToRelevantChildren(update);
    });
    co_return st;
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
  start.writes = writes;
  start.primary_done_time = ctx_.rt->Now();
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
  if (auto* update = std::get_if<SecondaryUpdate>(&env.payload)) {
    LAZYREP_CHECK_EQ(env.src, ctx_.routing->tree()->Parent(ctx_.site));
    inbox_.Send(SecondaryArrival{std::move(*update), env.batch_end});
    inbox_peak_ = std::max(inbox_peak_, inbox_.size());
  } else if (auto* start = std::get_if<BackedgeStart>(&env.payload)) {
    ++active_handlers_;
    ctx_.rt->Spawn(HandleBackedgeStart(std::move(*start)));
  } else if (auto* abort = std::get_if<BackedgeAbort>(&env.payload)) {
    if (abort->origin.origin_site == ctx_.site) {
      HandleBackedgeAbortAtOrigin(abort->origin);
    } else {
      HandleBackedgeAbortAtPathSite(abort->origin);
    }
  } else if (auto* prepare = std::get_if<TpcPrepare>(&env.payload)) {
    // Participant: the proxy has executed and holds its locks; vote, and
    // pin a yes-voted proxy so victim selection cannot break the promise.
    TpcVote vote;
    vote.origin = prepare->origin;
    auto it = proxies_.find(prepare->origin);
    if (it == proxies_.end() || it->second.txn->abort_requested()) {
      vote.yes = false;
    } else {
      vote.yes = true;
      it->second.txn->set_pinned(true);
    }
    ctx_.net->Post(ctx_.site, env.src, ProtocolMessage(vote));
  } else if (auto* vote = std::get_if<TpcVote>(&env.payload)) {
    HandleVote(*vote);
  } else if (auto* decision = std::get_if<TpcDecision>(&env.payload)) {
    ++active_handlers_;
    ctx_.rt->Spawn(HandleDecision(std::move(*decision)));
  } else if (std::get_if<TpcAck>(&env.payload) != nullptr) {
    --outstanding_acks_;
  } else {
    LAZYREP_CHECK(false) << "unexpected message kind for BackEdge";
  }
}

runtime::Co<void> BackEdgeEngine::HandleBackedgeStart(BackedgeStart start) {
  if (tombstones_.count(start.origin) > 0) {
    --active_handlers_;
    co_return;
  }
  storage::TxnPtr txn =
      ctx_.db->Begin(start.origin, storage::TxnKind::kRemoteProxy);
  txn->set_backedge_pending(true);
  Proxy proxy;
  proxy.txn = txn;
  proxy.executing = true;
  proxies_.emplace(start.origin, proxy);
  // If this proxy is victimized, the whole global transaction dies: tell
  // the origin, which broadcasts aborts along the path.
  GlobalTxnId origin = start.origin;
  SiteId origin_site = start.origin_site;
  txn->AddAbortHook([this, origin, origin_site] {
    ctx_.net->Post(ctx_.site, origin_site,
                   ProtocolMessage(BackedgeAbort{origin}));
  });

  bool applied_any = false;
  bool ok = co_await ApplySecondaryWrites(txn, start.writes, &applied_any);
  if (!ok) {
    // Victimized mid-execution; roll back. The abort hook has already
    // notified the origin.
    proxies_.erase(origin);
    tombstones_.insert(origin);
    co_await ctx_.db->Abort(txn);
    --active_handlers_;
    co_return;
  }
  auto it = proxies_.find(origin);
  LAZYREP_CHECK(it != proxies_.end());
  it->second.executing = false;
  it->second.applied_any = applied_any;

  // §4.1 step 2: relay the special secondary subtransaction down the tree
  // toward the origin.
  SecondaryUpdate special;
  special.origin = origin;
  special.writes = start.writes;
  special.is_special = true;
  special.origin_site = origin_site;
  special.origin_commit_time = start.primary_done_time;
  SiteId next = ctx_.routing->tree()->ChildToward(ctx_.site, origin_site);
  ctx_.net->Post(ctx_.site, next, ProtocolMessage(std::move(special)));
  --active_handlers_;
}

runtime::Co<void> BackEdgeEngine::Applier() {
  for (;;) {
    SecondaryArrival arrival = co_await inbox_.Receive();
    SecondaryUpdate& update = arrival.update;
    // Crashed sites stop consuming their (durable) forward queue until
    // recovery completes (docs/FAULTS.md).
    co_await AwaitSiteUp();
    applying_ = true;
    if (update.is_special) {
      // Specials commit through the 2PC at the origin, always with a
      // per-commit sync; one closing a batch still seals any deferred
      // lazy-path syncs.
      if (GroupCommit() && arrival.batch_end) ctx_.db->SyncWal();
      if (update.origin_site == ctx_.site) {
        co_await CommitPendingPrimary(std::move(update));
      } else {
        co_await ExecuteSpecialLocally(std::move(update));
      }
    } else {
      // Normal DAG(WT) secondary: apply, commit in FIFO order, forward
      // atomically with commit.
      storage::TxnPtr txn =
          ctx_.db->Begin(update.origin, storage::TxnKind::kSecondary);
      bool applied_any = false;
      bool ok = co_await ApplySecondaryWrites(txn, update.writes,
                                              &applied_any);
      LAZYREP_CHECK(ok) << "secondary subtransactions are never aborted";
      Status st = co_await ctx_.db->Commit(
          txn, [&](int64_t) { ForwardToRelevantChildren(update); },
          /*defer_wal_sync=*/GroupCommit() && !arrival.batch_end);
      LAZYREP_CHECK(st.ok()) << st.ToString();
      ++secondaries_committed_;
      if (update.origin_commit_seq != 0) {
        ctx_.db->NoteOriginApplied(update.origin_site,
                                   update.origin_commit_seq);
      }
      if (applied_any) {
        ctx_.metrics->OnSecondaryApplied(update.origin, ctx_.rt->Now());
      }
    }
    applying_ = false;
  }
}

runtime::Co<void> BackEdgeEngine::ExecuteSpecialLocally(SecondaryUpdate update) {
  if (tombstones_.count(update.origin) > 0) {
    // The origin aborted; downstream sites were told directly. Drop.
    co_return;
  }
  storage::TxnPtr txn =
      ctx_.db->Begin(update.origin, storage::TxnKind::kRemoteProxy);
  txn->set_backedge_pending(true);
  Proxy proxy;
  proxy.txn = txn;
  proxy.executing = true;
  proxies_.emplace(update.origin, proxy);
  GlobalTxnId origin = update.origin;
  SiteId origin_site = update.origin_site;
  txn->AddAbortHook([this, origin, origin_site] {
    ctx_.net->Post(ctx_.site, origin_site,
                   ProtocolMessage(BackedgeAbort{origin}));
  });

  bool applied_any = false;
  bool ok = co_await ApplySecondaryWrites(txn, update.writes, &applied_any);
  if (!ok) {
    proxies_.erase(origin);
    tombstones_.insert(origin);
    co_await ctx_.db->Abort(txn);
    co_return;
  }
  auto it = proxies_.find(origin);
  LAZYREP_CHECK(it != proxies_.end());
  it->second.executing = false;
  it->second.applied_any = applied_any;

  // Forward without committing (§4.1 step 2); locks stay held until the
  // 2PC decision.
  SiteId next = ctx_.routing->tree()->ChildToward(ctx_.site, origin_site);
  ctx_.net->Post(ctx_.site, next, ProtocolMessage(std::move(update)));
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

  // §4.1 step 3: commit Ti and S1..Sj atomically with 2PC.
  VoteState& vs = votes_[update.origin];
  vs.outstanding = static_cast<int>(pp.path_sites.size());
  vs.all_yes = true;
  vs.done = std::make_shared<runtime::Event>(ctx_.rt);
  std::shared_ptr<runtime::Event> done = vs.done;
  TpcPrepare prepare;
  prepare.origin = update.origin;
  prepare.coordinator = ctx_.site;
  for (SiteId s : pp.path_sites) {
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(prepare));
  }
  if (vs.outstanding == 0) done->Set();
  co_await done->Wait();
  bool all_yes = votes_[update.origin].all_yes;
  votes_.erase(update.origin);

  if (!all_yes) {
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
  Status st = co_await ctx_.db->Commit(txn, [&](int64_t seq) {
    SecondaryUpdate normal;
    normal.origin = id;
    normal.writes = writes;
    normal.origin_site = ctx_.site;
    normal.origin_commit_time = ctx_.rt->Now();
    // RYW note (docs/MVCC.md): path sites committing via the 2PC special
    // do not see this stamp — their applied tracker advances on later
    // lazy updates from this origin; the floor wait is conservative.
    if (ctx_.db->mvcc_enabled()) normal.origin_commit_seq = seq + 1;
    RegisterPropagation(id, ctx_.routing->CountReplicaTargets(writes));
    // §4.1 step 4: descendants are updated lazily per DAG(WT).
    ForwardToRelevantChildren(normal);
  });
  LAZYREP_CHECK(st.ok()) << st.ToString();
  TpcDecision decision;
  decision.origin = id;
  decision.commit = true;
  decision.origin_commit_time = ctx_.rt->Now();
  for (SiteId s : path) {
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(decision));
    ++outstanding_acks_;
  }
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
  ctx_.rt->Spawn(RollbackProxy(origin, /*tombstone=*/true));
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

void BackEdgeEngine::HandleVote(const TpcVote& vote) {
  auto it = votes_.find(vote.origin);
  if (it == votes_.end()) return;
  if (!vote.yes) it->second.all_yes = false;
  if (--it->second.outstanding == 0) it->second.done->Set();
}

runtime::Co<void> BackEdgeEngine::HandleDecision(TpcDecision decision) {
  auto it = proxies_.find(decision.origin);
  LAZYREP_CHECK(decision.commit) << "aborts travel as BackedgeAbort";
  LAZYREP_CHECK(it != proxies_.end())
      << "yes-voted proxy must exist at decision time";
  storage::TxnPtr txn = it->second.txn;
  bool applied_any = it->second.applied_any;
  proxies_.erase(it);
  // A pinned proxy can still carry a stale abort_requested flag if a
  // victim attempt raced the vote; the global decision wins.
  Status st = co_await ctx_.db->Commit(txn);
  LAZYREP_CHECK(st.ok()) << st.ToString();
  if (applied_any) {
    ctx_.metrics->OnSecondaryApplied(decision.origin, ctx_.rt->Now());
  }
  ctx_.net->Post(ctx_.site, decision.origin.origin_site,
                 ProtocolMessage(TpcAck{decision.origin}));
  --active_handlers_;
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
    ctx_.rt->Spawn(RollbackProxy(origin, /*tombstone=*/true));
  }
}

bool BackEdgeEngine::Quiescent() const {
  return inbox_.empty() && !applying_ && pending_.empty() &&
         proxies_.empty() && votes_.empty() && outstanding_acks_ == 0 &&
         active_handlers_ == 0;
}

void BackEdgeEngine::ExportObs() {
  if (ctx_.obs == nullptr) return;
  obs::Labels labels{{"site", std::to_string(ctx_.site)},
                     {"protocol", "backedge"}};
  ctx_.obs
      ->GetCounter("lazyrep_engine_secondaries_committed_total", labels,
                   "Secondary subtransactions committed")
      ->Increment(secondaries_committed_);
  ctx_.obs
      ->GetCounter("lazyrep_engine_backedge_txns_total", labels,
                   "Primaries that took the eager backedge path")
      ->Increment(backedge_txns_);
  ctx_.obs
      ->GetGauge("lazyrep_engine_queue_peak", labels,
                 "High watermark of the engine's FIFO apply queue(s)")
      ->Set(static_cast<double>(inbox_peak_));
}

}  // namespace lazyrep::core
