#include "core/engine_naive.h"

namespace lazyrep::core {

NaiveLazyEngine::NaiveLazyEngine(Context ctx)
    : ReplicationEngine(std::move(ctx)), inbox_(ctx_.rt) {}

void NaiveLazyEngine::Start() {
  if (!ctx_.routing->copy_graph().Parents(ctx_.site).empty()) {
    ctx_.rt->SpawnOn(ctx_.machine, Applier());
  }
}

runtime::Co<Status> NaiveLazyEngine::ExecutePrimary(
    GlobalTxnId id, const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunLocalTxn(txn, spec, &writes);
  if (!st.ok()) co_return st;
  // Hop to the home lane: the commit order and the posts made from the
  // atomic hook are home-lane-confined (no-op under kSim and when the
  // transaction already ran there). A victimization landing during the
  // hop must be honoured before Commit.
  co_await ctx_.rt->RunOn(ctx_.machine);
  if (txn->abort_requested()) {
    co_await ctx_.db->Abort(txn);
    co_return txn->abort_reason();
  }
  st = co_await ctx_.db->Commit(txn, [&](int64_t seq) {
    if (writes.empty()) return;
    SecondaryUpdate update;
    update.origin = id;
    update.writes = writes;
    update.origin_site = ctx_.site;
    update.origin_commit_time = ctx_.rt->Now();
    if (ctx_.db->mvcc_enabled()) update.origin_commit_seq = seq + 1;
    RegisterPropagation(id, ctx_.routing->CountReplicaTargets(writes));
    // Indiscriminate: straight to every replica holder.
    for (SiteId child :
         ctx_.routing->RelevantCopyChildren(ctx_.site, writes)) {
      ctx_.net->Post(ctx_.site, child, ProtocolMessage(update));
    }
  });
  co_return st;
}

void NaiveLazyEngine::OnMessage(ProtocolNetwork::Envelope env) {
  SecondaryUpdate* update = std::get_if<SecondaryUpdate>(&env.payload);
  LAZYREP_CHECK(update != nullptr) << "NaiveLazy only uses SecondaryUpdate";
  inbox_.Send(SecondaryArrival{std::move(*update), env.batch_end});
}

runtime::Co<void> NaiveLazyEngine::Applier() {
  const bool lww = ctx_.config->engine.naive_lww;
  for (;;) {
    SecondaryArrival arrival = co_await inbox_.Receive();
    SecondaryUpdate& update = arrival.update;
    applying_ = true;
    storage::TxnPtr txn =
        ctx_.db->Begin(update.origin, storage::TxnKind::kSecondary);
    bool applied_any = false;
    for (const WriteRecord& w : update.writes) {
      if (!ctx_.routing->HasReplica(ctx_.site, w.item)) continue;
      bool got = co_await AcquireXAsSecondary(txn.get(), w.item);
      LAZYREP_CHECK(got);
      co_await ctx_.db->ChargeCpu(ctx_.config->costs.secondary_apply_cpu);
      if (lww) {
        auto it = installed_version_.find(w.item);
        if (it != installed_version_.end() &&
            it->second > update.origin_commit_time) {
          // Reconciliation rule: keep the later-timestamped version.
          ++lww_skipped_;
          continue;
        }
        installed_version_[w.item] = update.origin_commit_time;
      }
      Status st = ctx_.db->WriteLocked(txn.get(), w.item, w.value);
      LAZYREP_CHECK(st.ok());
      applied_any = true;
    }
    Status st = co_await ctx_.db->Commit(
        txn, nullptr, /*defer_wal_sync=*/GroupCommit() && !arrival.batch_end);
    LAZYREP_CHECK(st.ok()) << st.ToString();
    if (update.origin_commit_seq != 0) {
      ctx_.db->NoteOriginApplied(update.origin_site,
                                 update.origin_commit_seq);
    }
    if (applied_any || lww) {
      ctx_.metrics->OnSecondaryApplied(update.origin, ctx_.rt->Now());
    }
    if (!applied_any && ctx_.oracle != nullptr) {
      // Every write lost to a later version: the record came out empty.
      ctx_.oracle->WithdrawRecord(update.origin);
    }
    applying_ = false;
  }
}

bool NaiveLazyEngine::Quiescent() const {
  return inbox_.empty() && !applying_;
}

}  // namespace lazyrep::core
