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
      Value value = EncodeValue(txn->id(), op_index);
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
  if (ctx_.metrics != nullptr && db.watermark_publish_time() > 0) {
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
  std::vector<storage::Transaction*> blockers =
      ctx_.db->locks().BlockingHolders(waiter, item,
                                       storage::LockMode::kExclusive);
  storage::Transaction* victim = nullptr;
  for (storage::Transaction* b : blockers) {
    if (!b->CanBeVictim() || b->abort_requested()) continue;
    if (b->backedge_pending()) {
      victim = b;
      break;
    }
    if (victim == nullptr || b->arrival_seq() > victim->arrival_seq()) {
      victim = b;
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
