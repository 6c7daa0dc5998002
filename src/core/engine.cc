#include "core/engine.h"

#include "common/logging.h"
#include "core/engine_backedge.h"
#include "core/engine_dag_t.h"
#include "core/engine_dag_wt.h"
#include "core/engine_eager.h"
#include "core/engine_naive.h"
#include "core/engine_psl.h"

namespace lazyrep::core {

std::string ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kDagWt: return "DAG(WT)";
    case Protocol::kDagT: return "DAG(T)";
    case Protocol::kBackEdge: return "BackEdge";
    case Protocol::kPsl: return "PSL";
    case Protocol::kNaiveLazy: return "NaiveLazy";
    case Protocol::kEager: return "Eager";
  }
  return "?";
}

runtime::Co<Status> ReplicationEngine::RunLocalTxn(
    storage::TxnPtr txn, const workload::TxnSpec& spec,
    std::vector<WriteRecord>* writes) {
  int op_index = 0;
  for (const workload::TxnOp& op : spec.ops) {
    Status st;
    if (op.is_write) {
      LAZYREP_CHECK_EQ(ctx_.routing->placement().primary[op.item],
                       ctx_.site)
          << "transactions may only update local primary copies";
      Value value = ProvenanceValue(txn->id(), op_index);
      st = co_await ctx_.db->Write(txn, op.item, value);
      if (st.ok() && writes != nullptr) {
        // Record the final value per item (last write wins within the
        // transaction).
        bool found = false;
        for (WriteRecord& w : *writes) {
          if (w.item == op.item) {
            w.value = value;
            found = true;
            break;
          }
        }
        if (!found) writes->push_back({op.item, value});
      }
    } else {
      Value ignored = 0;
      st = co_await ctx_.db->Read(txn, op.item, &ignored);
    }
    if (!st.ok()) {
      co_await ctx_.db->Abort(txn);
      co_return st;
    }
    ++op_index;
  }
  co_return Status::OK();
}

runtime::Co<Status> ReplicationEngine::RunPrimaryAtHome(
    storage::TxnPtr txn, const workload::TxnSpec& spec,
    std::vector<WriteRecord>* writes) {
  Status st = co_await RunLocalTxn(txn, spec, writes);
  if (!st.ok()) co_return st;
  co_await ctx_.rt->RunOn(ctx_.machine);
  if (txn->abort_requested()) {
    co_await ctx_.db->Abort(txn);
    co_return txn->abort_reason();
  }
  co_return Status::OK();
}

SecondaryUpdate ReplicationEngine::OriginUpdate(
    const GlobalTxnId& id, const std::vector<WriteRecord>& writes,
    int64_t seq) {
  SecondaryUpdate update;
  update.origin = id;
  update.writes = writes;
  update.origin_site = ctx_.site;
  if (StampsOriginCommitTime()) update.origin_commit_time = ctx_.rt->Now();
  // MVCC levels only: carry the origin's commit stamp so downstream
  // appliers can advance their per-origin applied tracker (RYW).
  if (ctx_.db->mvcc_enabled()) update.origin_commit_seq = seq + 1;
  RegisterPropagation(
      id, static_cast<int>(ctx_.routing->ReplicaTargets(writes).size()));
  return update;
}

std::vector<WriteRecord> ReplicationEngine::WritesFor(
    SiteId dest, Routing::Scope scope,
    const std::vector<WriteRecord>& writes) const {
  std::vector<WriteRecord> kept;
  if (ctx_.routing->Project(dest, scope, writes, &kept) == writes.size()) {
    return writes;
  }
  return kept;
}

std::optional<SecondaryUpdate> ReplicationEngine::ProjectFor(
    SiteId dest, Routing::Scope scope, const SecondaryUpdate& update) const {
  std::vector<WriteRecord> writes = WritesFor(dest, scope, update.writes);
  if (writes.empty() && scope != Routing::Scope::kPath) return std::nullopt;
  // Every field but the writes, which the projection replaces.
  SecondaryUpdate projected;
  projected.origin = update.origin;
  projected.writes = std::move(writes);
  projected.ts = update.ts;
  projected.ts_shared = update.ts_shared;
  projected.is_dummy = update.is_dummy;
  projected.is_special = update.is_special;
  projected.origin_site = update.origin_site;
  projected.origin_commit_time = update.origin_commit_time;
  projected.origin_commit_seq = update.origin_commit_seq;
  return projected;
}

runtime::Co<void> ReplicationEngine::ApplySecondary(
    const SecondaryArrival& arrival,
    std::function<void(int64_t commit_seq)> on_commit) {
  const SecondaryUpdate& update = arrival.update;
  storage::TxnPtr txn =
      ctx_.db->Begin(update.origin, storage::TxnKind::kSecondary);
  bool applied_any = false;
  bool ok = co_await ApplySecondaryWrites(txn, update.writes, &applied_any);
  LAZYREP_CHECK(ok) << "secondary subtransactions are never aborted";
  Status st = co_await ctx_.db->Commit(
      txn, std::move(on_commit),
      /*defer_wal_sync=*/GroupCommit() && !arrival.batch_end);
  LAZYREP_CHECK(st.ok()) << st.ToString();
  ++secondaries_committed_;
  NoteSecondaryCommitted(update, applied_any);
}

void ReplicationEngine::NoteSecondaryCommitted(const SecondaryUpdate& update,
                                               bool applied) {
  if (update.origin_commit_seq != 0) {
    ctx_.db->NoteOriginApplied(update.origin_site, update.origin_commit_seq);
  }
  if (applied) ctx_.metrics->OnSecondaryApplied(update.origin, ctx_.rt->Now());
}

runtime::Co<void> ReplicationEngine::Counted(runtime::Co<void> handler) {
  co_await std::move(handler);
  --handlers_in_flight_;
}

runtime::Co<bool> ReplicationEngine::CollectVotes(
    GlobalTxnId id, const std::vector<SiteId>& participants,
    const std::vector<WriteRecord>* writes) {
  if (participants.empty()) co_return true;
  VoteState& vs = votes_[id];
  vs.outstanding = static_cast<int>(participants.size());
  vs.done = std::make_shared<runtime::Event>(ctx_.rt);
  std::shared_ptr<runtime::Event> done = vs.done;
  for (SiteId s : participants) {
    TpcPrepare prepare;
    prepare.origin = id;
    prepare.coordinator = ctx_.site;
    if (writes != nullptr) {
      prepare.writes = WritesFor(s, Routing::Scope::kSite, *writes);
      prepare.carries_writes = true;
    }
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(std::move(prepare)));
  }
  co_await done->Wait();
  co_return votes_.extract(id).mapped().all_yes;
}

void ReplicationEngine::BroadcastDecision(
    GlobalTxnId id, bool commit, const std::vector<SiteId>& participants) {
  TpcDecision decision;
  decision.origin = id;
  decision.commit = commit;
  for (SiteId s : participants) {
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(decision));
    ++outstanding_acks_;
  }
}

bool ReplicationEngine::OnTpcReply(const ProtocolMessage& msg) {
  if (const auto* vote = std::get_if<TpcVote>(&msg)) {
    auto it = votes_.find(vote->origin);
    LAZYREP_CHECK(it != votes_.end()) << "vote for no pending 2PC";
    if (!vote->yes) it->second.all_yes = false;
    if (--it->second.outstanding == 0) it->second.done->Set();
    return true;
  }
  if (std::holds_alternative<TpcAck>(msg)) {
    --outstanding_acks_;
    return true;
  }
  return false;
}

runtime::Co<void> ReplicationEngine::FinishPrepared(GlobalTxnId origin,
                                                    storage::TxnPtr txn,
                                                    bool commit,
                                                    bool applied_any) {
  if (commit) {
    Status st = co_await ctx_.db->Commit(txn);
    LAZYREP_CHECK(st.ok()) << st.ToString();
    if (applied_any) ctx_.metrics->OnSecondaryApplied(origin, ctx_.rt->Now());
  } else {
    co_await ctx_.db->Abort(txn);
  }
  AckDecision(origin);
}

obs::Labels ReplicationEngine::ExportApplierObs(const char* protocol,
                                                size_t queue_peak) {
  obs::Labels labels{{"site", std::to_string(ctx_.site)},
                     {"protocol", protocol}};
  ctx_.obs
      ->GetCounter("lazyrep_engine_secondaries_committed_total", labels,
                   "Secondary subtransactions committed")
      ->Increment(secondaries_committed_);
  ctx_.obs
      ->GetGauge("lazyrep_engine_queue_peak", labels,
                 "High watermark of the engine's FIFO apply queue(s)")
      ->Set(static_cast<double>(queue_peak));
  return labels;
}

runtime::Co<Status> ReplicationEngine::ExecuteSnapshotRead(
    GlobalTxnId id, const workload::TxnSpec& spec,
    storage::Session* session) {
  storage::Database& db = *ctx_.db;
  LAZYREP_CHECK(db.mvcc_enabled())
      << "snapshot reads require consistency != serializable";
  co_await AwaitSiteUp();
  // RYW floor: wait until this site has applied the session's last
  // commit. At the origin site the watermark covers it by construction
  // (publication is synchronous inside Commit's atomic region and the
  // watermark survives crash recovery); at any other site the appliers'
  // per-origin tracker advances as the origin's updates commit here.
  if (session != nullptr &&
      session->level == storage::ConsistencyLevel::kRyw &&
      session->floor_site >= 0 && session->floor_site != ctx_.site) {
    while (db.applied_from(session->floor_site) < session->floor_stamp) {
      co_await ctx_.rt->Delay(Millis(1));
      co_await AwaitSiteUp();
    }
  }
  storage::TxnPtr txn = db.Begin(id, storage::TxnKind::kPrimary);
  storage::SnapshotHandle handle = db.BeginSnapshot(txn.get());
  if (session != nullptr && session->floor_site == ctx_.site) {
    LAZYREP_CHECK(handle.stamp >= session->floor_stamp)
        << "watermark below the session's own commit";
  }
  if (db.watermark_publish_time() > 0) {
    ctx_.metrics->OnSnapshotStaleness(
        ctx_.site, ctx_.rt->Now() - db.watermark_publish_time());
  }
  for (const workload::TxnOp& op : spec.ops) {
    LAZYREP_CHECK(!op.is_write) << "snapshot transactions are read-only";
    co_await db.ChargeCpu(ctx_.config->costs.op.snapshot_read_cpu);
    if (txn->abort_requested()) {
      db.EndSnapshot(&handle);
      Status reason = txn->abort_reason();
      co_await db.Abort(txn);
      co_return reason;
    }
    Result<Value> v = db.SnapshotRead(handle, txn.get(), op.item);
    if (!v.ok()) {
      db.EndSnapshot(&handle);
      co_await db.Abort(txn);
      co_return v.status();
    }
  }
  // No commit CPU, no WAL record, no lock release: retiring a snapshot
  // read is bookkeeping only — that is the serving-path win.
  const int64_t local_floor =
      (session != nullptr && session->floor_site == ctx_.site)
          ? session->floor_stamp
          : 0;
  db.FinishSnapshotTxn(txn, handle, local_floor);
  db.EndSnapshot(&handle);
  co_return Status::OK();
}

runtime::Co<bool> ReplicationEngine::AcquireXAsSecondary(
    storage::Transaction* txn, ItemId item) {
  for (;;) {
    storage::LockOutcome lo = co_await ctx_.db->locks().Acquire(
        txn, item, storage::LockMode::kExclusive);
    switch (lo) {
      case storage::LockOutcome::kGranted:
        co_return true;
      case storage::LockOutcome::kAborted:
        co_return false;
      case storage::LockOutcome::kTimeout:
        // The paper's rule: the secondary is never the victim; it kills a
        // blocking holder and retries (§2 fairness / §4.1 Example 4.1).
        AbortOneBlocker(txn, item);
        break;
      case storage::LockOutcome::kDied:
        // Unreachable: wait-die's self-die rule applies to primary
        // requesters only — subtransactions and proxies wait, and are
        // only ever aborted through `RequestAbort` so their hooks (which
        // notify the origin) always fire.
        co_return false;
    }
  }
}

void ReplicationEngine::AbortOneBlocker(storage::Transaction* waiter,
                                        ItemId item) {
  // The references keep every blocker alive while it is inspected, even
  // if it finishes on another lane meanwhile.
  std::vector<storage::TxnPtr> blockers = ctx_.db->locks().BlockingHolders(
      waiter, item, storage::LockMode::kExclusive);
  storage::Transaction* victim = nullptr;
  for (const storage::TxnPtr& b : blockers) {
    if (!b->CanBeVictim() || b->abort_requested()) continue;
    if (b->backedge_pending()) {
      victim = b.get();
      break;
    }
    if (victim == nullptr || b->arrival_seq() > victim->arrival_seq()) {
      victim = b.get();
    }
  }
  if (victim != nullptr) {
    LAZYREP_LOG(kDebug) << "site " << ctx_.site << ": secondary "
                        << waiter->DebugString() << " victimizes "
                        << victim->DebugString() << " on item " << item;
    victim->RequestAbort(Status::ExternalAbort(
        "aborted to let a secondary subtransaction proceed"));
  }
}

runtime::Co<bool> ReplicationEngine::ApplySecondaryWrites(
    storage::TxnPtr txn, const std::vector<WriteRecord>& writes,
    bool* applied_any) {
  *applied_any = false;
  for (const WriteRecord& w : writes) {
    if (!ctx_.routing->HasReplica(ctx_.site, w.item)) continue;
    if (txn->abort_requested()) co_return false;
    bool got = co_await AcquireXAsSecondary(txn.get(), w.item);
    if (!got) co_return false;
    co_await ctx_.db->ChargeCpu(ctx_.config->costs.secondary_apply_cpu);
    if (txn->abort_requested()) co_return false;
    Status st = ctx_.db->WriteLocked(txn.get(), w.item, w.value);
    LAZYREP_CHECK(st.ok()) << st.ToString();
    *applied_any = true;
  }
  co_return true;
}

std::unique_ptr<ReplicationEngine> MakeEngine(
    ReplicationEngine::Context ctx) {
  switch (ctx.config->protocol) {
    case Protocol::kDagWt:
      return std::make_unique<DagWtEngine>(std::move(ctx));
    case Protocol::kDagT:
      return std::make_unique<DagTEngine>(std::move(ctx));
    case Protocol::kBackEdge:
      return std::make_unique<BackEdgeEngine>(std::move(ctx));
    case Protocol::kPsl:
      return std::make_unique<PslEngine>(std::move(ctx));
    case Protocol::kNaiveLazy:
      return std::make_unique<NaiveLazyEngine>(std::move(ctx));
    case Protocol::kEager:
      return std::make_unique<EagerEngine>(std::move(ctx));
  }
  LAZYREP_CHECK(false) << "unknown protocol";
  return nullptr;
}

}  // namespace lazyrep::core
