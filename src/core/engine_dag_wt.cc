#include "core/engine_dag_wt.h"

#include <algorithm>

namespace lazyrep::core {

DagWtEngine::DagWtEngine(Context ctx)
    : ReplicationEngine(std::move(ctx)), inbox_(ctx_.rt) {}

void DagWtEngine::Start() {
  // A site with a tree parent receives forwarded subtransactions.
  LAZYREP_CHECK(ctx_.routing->tree().has_value());
  if (ctx_.routing->tree()->Parent(ctx_.site) != kInvalidSite) {
    ctx_.rt->SpawnOn(ctx_.machine, Applier());
  }
}

void DagWtEngine::ForwardToRelevantChildren(const SecondaryUpdate& update) {
  for (SiteId child :
       ctx_.routing->RelevantTreeChildren(ctx_.site, update.writes)) {
    ctx_.net->Post(ctx_.site, child, ProtocolMessage(update));
  }
}

runtime::Co<Status> DagWtEngine::ExecutePrimary(GlobalTxnId id,
                                            const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunPrimaryAtHome(txn, spec, &writes);
  if (!st.ok()) co_return st;
  co_return co_await CommitLazily(txn, id, writes);
}

runtime::Co<Status> DagWtEngine::CommitLazily(
    storage::TxnPtr txn, GlobalTxnId id,
    const std::vector<WriteRecord>& writes) {
  co_return co_await ctx_.db->Commit(txn, [&](int64_t seq) {
    if (writes.empty()) return;
    ForwardToRelevantChildren(OriginUpdate(id, writes, seq));
  });
}

void DagWtEngine::OnMessage(ProtocolNetwork::Envelope env) {
  LAZYREP_CHECK_EQ(env.src, ctx_.routing->tree()->Parent(ctx_.site))
      << "tree propagation receives only from its tree parent";
  SecondaryUpdate* update = std::get_if<SecondaryUpdate>(&env.payload);
  LAZYREP_CHECK(update != nullptr) << "DAG(WT) only uses SecondaryUpdate";
  inbox_.Send(SecondaryArrival{std::move(*update), env.batch_end});
  inbox_peak_ = std::max(inbox_peak_, inbox_.size());
}

void DagWtEngine::ExportObs() { ExportApplierObs(ObsProtocol(), inbox_peak_); }

runtime::Co<void> DagWtEngine::Applier() {
  for (;;) {
    SecondaryArrival arrival = co_await inbox_.Receive();
    // Under fault injection a crashed site stops consuming its (durable)
    // forward queue until recovery completes; an update already being
    // applied rides through the crash as part of the restart redo
    // (docs/FAULTS.md).
    co_await AwaitSiteUp();
    applying_ = true;
    if (arrival.update.is_special) {
      co_await ApplySpecial(std::move(arrival));
    } else {
      // Commit in FIFO order, forwarding atomically with the commit.
      co_await ApplySecondary(arrival, [&](int64_t) {
        ForwardToRelevantChildren(arrival.update);
      });
    }
    applying_ = false;
  }
}

runtime::Co<void> DagWtEngine::ApplySpecial(SecondaryArrival) {
  LAZYREP_CHECK(false) << "DAG(WT) has no special subtransactions";
  co_return;
}

bool DagWtEngine::Quiescent() const { return inbox_.empty() && !applying_; }

}  // namespace lazyrep::core
