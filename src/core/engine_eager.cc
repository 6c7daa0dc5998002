#include "core/engine_eager.h"

namespace lazyrep::core {

EagerEngine::EagerEngine(Context ctx)
    : ReplicationEngine(std::move(ctx)) {}

runtime::Co<Status> EagerEngine::ExecutePrimary(GlobalTxnId id,
                                            const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunLocalTxn(txn, spec, &writes);
  if (!st.ok()) co_return st;

  // Participants: every site with a replica of an updated item.
  std::set<SiteId> participants;
  for (const WriteRecord& w : writes) {
    const auto& sites = ctx_.routing->ReplicaSites(w.item);
    participants.insert(sites.begin(), sites.end());
  }
  if (participants.empty()) {
    co_return co_await ctx_.db->Commit(txn);
  }

  VoteState& vs = votes_[id];
  vs.outstanding = static_cast<int>(participants.size());
  vs.all_yes = true;
  vs.done = std::make_shared<runtime::Event>(ctx_.rt);
  std::shared_ptr<runtime::Event> done = vs.done;
  for (SiteId s : participants) {
    // Each participant gets the writes it replicates, and only those.
    TpcPrepare prepare;
    prepare.origin = id;
    prepare.coordinator = ctx_.site;
    prepare.writes = WritesFor(s, Routing::Scope::kSite, writes);
    prepare.carries_writes = true;
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(std::move(prepare)));
  }
  co_await done->Wait();
  bool all_yes = votes_[id].all_yes;
  votes_.erase(id);

  TpcDecision decision;
  decision.origin = id;
  decision.commit = all_yes && !txn->abort_requested();
  if (decision.commit) {
    st = co_await ctx_.db->Commit(txn, [&](int64_t) {
      RegisterPropagation(id, static_cast<int>(participants.size()));
    });
    // A victim-selection race during the commit CPU charge turns the
    // commit into a rollback; flip the decision accordingly.
    decision.commit = st.ok();
  } else {
    co_await ctx_.db->Abort(txn);
    st = txn->abort_reason().ok()
             ? Status::DeadlockAbort("replica site voted no")
             : txn->abort_reason();
  }
  for (SiteId s : participants) {
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(decision));
    ++outstanding_acks_;
  }
  co_return st;
}

void EagerEngine::OnMessage(ProtocolNetwork::Envelope env) {
  if (auto* prepare = std::get_if<TpcPrepare>(&env.payload)) {
    ++active_handlers_;
    ctx_.rt->Spawn(HandlePrepare(env.src, std::move(*prepare)));
  } else if (auto* vote = std::get_if<TpcVote>(&env.payload)) {
    auto it = votes_.find(vote->origin);
    LAZYREP_CHECK(it != votes_.end());
    if (!vote->yes) it->second.all_yes = false;
    if (--it->second.outstanding == 0) it->second.done->Set();
  } else if (auto* decision = std::get_if<TpcDecision>(&env.payload)) {
    ++active_handlers_;
    ctx_.rt->Spawn(HandleDecision(std::move(*decision)));
  } else if (std::get_if<TpcAck>(&env.payload) != nullptr) {
    --outstanding_acks_;
  } else {
    LAZYREP_CHECK(false) << "unexpected message kind for Eager";
  }
}

runtime::Co<void> EagerEngine::HandlePrepare(SiteId coordinator,
                                         TpcPrepare prepare) {
  storage::TxnPtr txn =
      ctx_.db->Begin(prepare.origin, storage::TxnKind::kRemoteProxy);
  bool ok = true;
  bool applied_any = false;
  // The prepare carries only this site's writes (ExecutePrimary).
  for (const WriteRecord& w : prepare.writes) {
    // Single bounded attempt: a timeout here is how distributed
    // deadlocks surface, and becomes a NO vote.
    storage::LockOutcome lo = co_await ctx_.db->locks().Acquire(
        txn.get(), w.item, storage::LockMode::kExclusive);
    if (lo != storage::LockOutcome::kGranted) {
      ok = false;
      break;
    }
    co_await ctx_.db->ChargeCpu(ctx_.config->costs.secondary_apply_cpu);
    Status st = ctx_.db->WriteLocked(txn.get(), w.item, w.value);
    LAZYREP_CHECK(st.ok());
    applied_any = true;
  }
  TpcVote vote;
  vote.origin = prepare.origin;
  vote.yes = ok;
  if (ok) {
    txn->set_pinned(true);  // Promised; immune to victim selection.
    prepared_.emplace(prepare.origin, Prepared{txn, applied_any});
  } else {
    co_await ctx_.db->Abort(txn);
  }
  ctx_.net->Post(ctx_.site, coordinator, ProtocolMessage(vote));
  --active_handlers_;
}

runtime::Co<void> EagerEngine::HandleDecision(TpcDecision decision) {
  auto it = prepared_.find(decision.origin);
  if (it == prepared_.end()) {
    // We voted no; nothing to do but acknowledge.
    ctx_.net->Post(ctx_.site, decision.origin.origin_site,
                   ProtocolMessage(TpcAck{decision.origin}));
    --active_handlers_;
    co_return;
  }
  Prepared prepared = it->second;
  prepared_.erase(it);
  if (decision.commit) {
    Status st = co_await ctx_.db->Commit(prepared.txn);
    LAZYREP_CHECK(st.ok());
    if (prepared.applied_any) {
      ctx_.metrics->OnSecondaryApplied(decision.origin, ctx_.rt->Now());
    }
  } else {
    co_await ctx_.db->Abort(prepared.txn);
  }
  ctx_.net->Post(ctx_.site, decision.origin.origin_site,
                 ProtocolMessage(TpcAck{decision.origin}));
  --active_handlers_;
}

bool EagerEngine::Quiescent() const {
  return votes_.empty() && prepared_.empty() && active_handlers_ == 0 &&
         outstanding_acks_ == 0;
}

}  // namespace lazyrep::core
