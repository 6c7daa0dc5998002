#include "core/engine_eager.h"

namespace lazyrep::core {

runtime::Co<Status> EagerEngine::ExecutePrimary(GlobalTxnId id,
                                            const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunLocalTxn(txn, spec, &writes);
  if (!st.ok()) co_return st;

  // Participants: every site with a replica of an updated item.
  const std::vector<SiteId> participants =
      ctx_.routing->ReplicaTargets(writes);
  if (participants.empty()) {
    co_return co_await ctx_.db->Commit(txn);
  }

  // Each participant gets the writes it replicates, and only those.
  const bool all_yes = co_await CollectVotes(id, participants, &writes);
  bool commit = all_yes && !txn->abort_requested();
  if (commit) {
    st = co_await ctx_.db->Commit(txn, [&](int64_t) {
      RegisterPropagation(id, static_cast<int>(participants.size()));
    });
    // A victim-selection race during the commit CPU charge turns the
    // commit into a rollback; flip the decision accordingly.
    commit = st.ok();
  } else {
    co_await ctx_.db->Abort(txn);
    st = txn->abort_reason().ok()
             ? Status::DeadlockAbort("replica site voted no")
             : txn->abort_reason();
  }
  BroadcastDecision(id, commit, participants);
  co_return st;
}

void EagerEngine::OnMessage(ProtocolNetwork::Envelope env) {
  if (auto* prepare = std::get_if<TpcPrepare>(&env.payload)) {
    SpawnCounted(HandlePrepare(env.src, std::move(*prepare)));
  } else if (auto* decision = std::get_if<TpcDecision>(&env.payload)) {
    SpawnCounted(HandleDecision(std::move(*decision)));
  } else if (!OnTpcReply(env.payload)) {
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
}

runtime::Co<void> EagerEngine::HandleDecision(TpcDecision decision) {
  auto it = prepared_.find(decision.origin);
  if (it == prepared_.end()) {
    // We voted no; nothing to do but acknowledge.
    AckDecision(decision.origin);
    co_return;
  }
  Prepared prepared = it->second;
  prepared_.erase(it);
  co_await FinishPrepared(decision.origin, prepared.txn, decision.commit,
                          prepared.applied_any);
}

}  // namespace lazyrep::core
