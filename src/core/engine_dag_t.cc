#include "core/engine_dag_t.h"

#include <algorithm>

namespace lazyrep::core {

DagTEngine::DagTEngine(Context ctx) : ReplicationEngine(std::move(ctx)) {
  site_ts_ = Timestamp::Initial(Rank());
  for (SiteId parent : ctx_.routing->copy_graph().Parents(ctx_.site)) {
    queues_.emplace(parent,
                    std::make_unique<runtime::Mailbox<SecondaryArrival>>(
                        ctx_.rt));
  }
}

void DagTEngine::Start() {
  if (!queues_.empty()) {
    ctx_.rt->SpawnOn(ctx_.machine, Applier());
  } else {
    // Sources drive progress by advancing their epoch periodically
    // (§3.3).
    ctx_.rt->SpawnOn(ctx_.machine, EpochTicker());
  }
  if (!ctx_.routing->copy_graph().Children(ctx_.site).empty()) {
    ctx_.rt->SpawnOn(ctx_.machine, DummySender());
  }
}

void DagTEngine::PostToChild(SiteId child, SecondaryUpdate update) {
  last_sent_[child] = ctx_.rt->Now();
  ctx_.net->Post(ctx_.site, child, ProtocolMessage(std::move(update)));
}

runtime::Co<Status> DagTEngine::ExecutePrimary(GlobalTxnId id,
                                           const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunLocalTxn(txn, spec, &writes);
  if (!st.ok()) co_return st;
  // Hop to the home lane: LTS/site-timestamp state and the commit order
  // are home-lane-confined (no-op under kSim and when the transaction
  // already ran there).
  co_await ctx_.rt->RunOn(ctx_.machine);
  if (txn->abort_requested()) {
    co_await ctx_.db->Abort(txn);
    co_return txn->abort_reason();
  }
  st = co_await ctx_.db->Commit(txn, [&](int64_t seq) {
    // §3.2.2, atomically with commit: bump LTS, stamp the transaction
    // with the site timestamp, schedule secondaries at relevant children.
    ++lts_;
    site_ts_.BumpOwnLts();
    if (writes.empty()) return;
    SecondaryUpdate update;
    update.origin = id;
    update.writes = writes;
    update.ts = site_ts_;
    update.origin_site = ctx_.site;
    update.origin_commit_time = ctx_.rt->Now();
    if (ctx_.db->mvcc_enabled()) update.origin_commit_seq = seq + 1;
    RegisterPropagation(id, ctx_.routing->CountReplicaTargets(writes));
    for (SiteId child :
         ctx_.routing->RelevantCopyChildren(ctx_.site, writes)) {
      PostToChild(child, update);
    }
  });
  co_return st;
}

void DagTEngine::OnMessage(ProtocolNetwork::Envelope env) {
  SecondaryUpdate* update = std::get_if<SecondaryUpdate>(&env.payload);
  LAZYREP_CHECK(update != nullptr) << "DAG(T) only uses SecondaryUpdate";
  auto it = queues_.find(env.src);
  LAZYREP_CHECK(it != queues_.end())
      << "message from non-parent site " << env.src;
  if (!update->is_dummy) ++pending_real_;
  it->second->Send(SecondaryArrival{std::move(*update), env.batch_end});
  queue_peak_ = std::max(queue_peak_, it->second->size());
}

runtime::Co<void> DagTEngine::Applier() {
  Timestamp last_committed;
  bool have_last = false;
  for (;;) {
    // Crashed sites stop consuming their (durable) incoming queues until
    // recovery completes (docs/FAULTS.md).
    co_await AwaitSiteUp();
    // §3.2.3: every incoming queue must be non-empty before the minimum
    // is taken. Single consumer, so once a queue is seen non-empty it
    // stays non-empty until we pop. Single-parent sites (every site of a
    // chain/tree/fan topology) skip the min-scan entirely.
    runtime::Mailbox<SecondaryArrival>* min_queue = nullptr;
    if (queues_.size() == 1) {
      min_queue = queues_.begin()->second.get();
      co_await min_queue->WaitNonEmpty();
    } else {
      for (auto& [parent, queue] : queues_) {
        co_await queue->WaitNonEmpty();
      }
      for (auto& [parent, queue] : queues_) {
        if (min_queue == nullptr ||
            Timestamp::Compare(queue->Front().update.ts,
                               min_queue->Front().update.ts) < 0) {
          min_queue = queue.get();
        }
      }
    }
    SecondaryArrival arrival = min_queue->Pop();
    SecondaryUpdate& update = arrival.update;

    // Protocol invariant (the serializability argument of Theorem 3.1):
    // subtransactions execute at each site in timestamp order.
    if (have_last) {
      LAZYREP_CHECK(Timestamp::Compare(last_committed, update.ts) <= 0)
          << "timestamp order violated at site " << ctx_.site << ": "
          << last_committed.ToString() << " then " << update.ts.ToString();
    }
    last_committed = update.ts;
    have_last = true;

    if (update.is_dummy) {
      // Push the site timestamp forward without touching data. A dummy
      // closing a delivered batch still seals any deferred WAL syncs.
      site_ts_ = update.ts.ExtendedWith(Rank(), lts_, update.ts.epoch());
      if (GroupCommit() && arrival.batch_end) ctx_.db->SyncWal();
      continue;
    }
    applying_real_ = true;
    --pending_real_;
    storage::TxnPtr txn =
        ctx_.db->Begin(update.origin, storage::TxnKind::kSecondary);
    bool applied_any = false;
    bool ok = co_await ApplySecondaryWrites(txn, update.writes,
                                            &applied_any);
    LAZYREP_CHECK(ok) << "secondary subtransactions are never aborted";
    Status st = co_await ctx_.db->Commit(
        txn,
        [&](int64_t) {
          // §3.2.3: TS(s) := TS(T) ⊕ (s, LTS_s), atomically with commit.
          site_ts_ = update.ts.ExtendedWith(Rank(), lts_, update.ts.epoch());
        },
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
    applying_real_ = false;
  }
}

runtime::Co<void> DagTEngine::EpochTicker() {
  while (!shutdown_) {
    co_await ctx_.rt->Delay(ctx_.config->engine.epoch_period);
    site_ts_.set_epoch(site_ts_.epoch() + 1);
    ++epoch_bumps_;
  }
}

void DagTEngine::ExportObs() {
  if (ctx_.obs == nullptr) return;
  obs::Labels labels{{"site", std::to_string(ctx_.site)},
                     {"protocol", "dag_t"}};
  ctx_.obs
      ->GetCounter("lazyrep_engine_secondaries_committed_total", labels,
                   "Secondary subtransactions committed")
      ->Increment(secondaries_committed_);
  ctx_.obs
      ->GetCounter("lazyrep_engine_dummies_sent_total", labels,
                   "DAG(T) liveness dummy subtransactions sent")
      ->Increment(dummies_sent_);
  ctx_.obs
      ->GetCounter("lazyrep_engine_epoch_bumps_total", labels,
                   "DAG(T) epoch advances at this source")
      ->Increment(epoch_bumps_);
  ctx_.obs
      ->GetGauge("lazyrep_engine_queue_peak", labels,
                 "High watermark of the engine's FIFO apply queue(s)")
      ->Set(static_cast<double>(queue_peak_));
}

runtime::Co<void> DagTEngine::DummySender() {
  const Duration period = ctx_.config->engine.dummy_period;
  while (!shutdown_) {
    co_await ctx_.rt->Delay(period);
    if (shutdown_) break;
    if (!SiteUp()) continue;  // A crashed site sends no dummies.
    for (SiteId child : ctx_.routing->copy_graph().Children(ctx_.site)) {
      auto it = last_sent_.find(child);
      if (it != last_sent_.end() && it->second + period > ctx_.rt->Now()) {
        continue;  // Recent real traffic on this edge.
      }
      SecondaryUpdate dummy;
      dummy.is_dummy = true;
      dummy.ts = site_ts_;
      dummy.origin_site = ctx_.site;
      ++dummies_sent_;
      PostToChild(child, dummy);
    }
  }
}

bool DagTEngine::Quiescent() const {
  return !applying_real_ && pending_real_ == 0;
}

}  // namespace lazyrep::core
