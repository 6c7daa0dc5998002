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
  if (ctx_.config->engine.batch_window > 0 &&
      !ctx_.routing->tree()->Children(ctx_.site).empty()) {
    ctx_.rt->SpawnOn(ctx_.machine, BatchFlusher());
  }
}

void DagWtEngine::ForwardToRelevantChildren(const SecondaryUpdate& update) {
  for (SiteId child :
       ctx_.routing->RelevantTreeChildren(ctx_.site, update.writes)) {
    if (ctx_.config->engine.batch_window > 0) {
      // Batching extension: buffered in forwarding order, shipped by the
      // flusher.
      outgoing_[child].push_back(update);
    } else {
      ctx_.net->Post(ctx_.site, child, ProtocolMessage(update));
    }
  }
}

void DagWtEngine::FlushBatches() {
  for (auto& [child, buffer] : outgoing_) {
    if (buffer.empty()) continue;
    if (buffer.size() == 1) {
      ctx_.net->Post(ctx_.site, child,
                     ProtocolMessage(std::move(buffer[0])));
    } else {
      SecondaryBatch batch;
      batch.updates = std::move(buffer);
      ctx_.net->Post(ctx_.site, child, ProtocolMessage(std::move(batch)));
    }
    buffer.clear();
  }
}

runtime::Co<void> DagWtEngine::BatchFlusher() {
  const Duration window = ctx_.config->engine.batch_window;
  while (!shutdown_) {
    co_await ctx_.rt->Delay(window);
    FlushBatches();
  }
}

void DagWtEngine::BeginShutdown() {
  ReplicationEngine::BeginShutdown();
  FlushBatches();  // Nothing may linger in the buffers.
}

runtime::Co<Status> DagWtEngine::ExecutePrimary(GlobalTxnId id,
                                            const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunLocalTxn(txn, spec, &writes);
  if (!st.ok()) co_return st;
  // Hop to the home lane: commit order, the forwarding hook, and the
  // batch buffers it may touch are home-lane-confined (no-op under kSim
  // and when the transaction already ran there).
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
    // MVCC levels only: carry the origin's commit stamp so downstream
    // appliers can advance their per-origin applied tracker (RYW).
    if (ctx_.db->mvcc_enabled()) update.origin_commit_seq = seq + 1;
    RegisterPropagation(id, ctx_.routing->CountReplicaTargets(writes));
    ForwardToRelevantChildren(update);
  });
  co_return st;
}

void DagWtEngine::OnMessage(ProtocolNetwork::Envelope env) {
  LAZYREP_CHECK_EQ(env.src, ctx_.routing->tree()->Parent(ctx_.site))
      << "DAG(WT) receives only from its tree parent";
  UnpackSecondaryEnvelope(std::move(env), [this](SecondaryArrival arrival) {
    inbox_.Send(std::move(arrival));
  });
  inbox_peak_ = std::max(inbox_peak_, inbox_.size());
}

void DagWtEngine::ExportObs() {
  if (ctx_.obs == nullptr) return;
  obs::Labels labels{{"site", std::to_string(ctx_.site)},
                     {"protocol", "dag_wt"}};
  ctx_.obs
      ->GetCounter("lazyrep_engine_secondaries_committed_total", labels,
                   "Secondary subtransactions committed")
      ->Increment(secondaries_committed_);
  ctx_.obs
      ->GetGauge("lazyrep_engine_queue_peak", labels,
                 "High watermark of the engine's FIFO apply queue(s)")
      ->Set(static_cast<double>(inbox_peak_));
}

runtime::Co<void> DagWtEngine::Applier() {
  for (;;) {
    SecondaryArrival arrival = co_await inbox_.Receive();
    SecondaryUpdate& update = arrival.update;
    // Under fault injection a crashed site stops consuming its (durable)
    // forward queue until recovery completes; an update already being
    // applied rides through the crash as part of the restart redo
    // (docs/FAULTS.md).
    co_await AwaitSiteUp();
    applying_ = true;
    storage::TxnPtr txn =
        ctx_.db->Begin(update.origin, storage::TxnKind::kSecondary);
    bool applied_any = false;
    bool ok = co_await ApplySecondaryWrites(txn, update.writes,
                                            &applied_any);
    LAZYREP_CHECK(ok) << "secondary subtransactions are never aborted";
    // Group commit: mid-batch commits defer the WAL sync; the batch's
    // last commit syncs and seals them all (the boundary is cumulative).
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
    applying_ = false;
  }
}

bool DagWtEngine::Quiescent() const {
  if (!inbox_.empty() || applying_) return false;
  for (const auto& [child, buffer] : outgoing_) {
    if (!buffer.empty()) return false;
  }
  return true;
}

}  // namespace lazyrep::core
