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
  // Ship only the tuples the channel has not seen: the receiver holds the
  // previous timestamp sent on it (channels are exactly-once FIFO).
  Timestamp& sent = sent_ts_[child];
  const size_t shared = Timestamp::SharedPrefix(sent, update.ts);
  Timestamp suffix = update.ts.Suffix(shared);
  sent = std::move(update.ts);
  update.ts = std::move(suffix);
  update.ts_shared = static_cast<uint32_t>(shared);
  ctx_.net->Post(ctx_.site, child, ProtocolMessage(std::move(update)));
}

runtime::Co<Status> DagTEngine::ExecutePrimary(GlobalTxnId id,
                                           const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::vector<WriteRecord> writes;
  Status st = co_await RunPrimaryAtHome(txn, spec, &writes);
  if (!st.ok()) co_return st;
  st = co_await ctx_.db->Commit(txn, [&](int64_t seq) {
    // §3.2.2, atomically with commit: bump LTS, stamp the transaction
    // with the site timestamp, schedule secondaries at relevant children.
    ++lts_;
    site_ts_.BumpOwnLts();
    if (writes.empty()) return;
    SecondaryUpdate update = OriginUpdate(id, writes, seq);
    update.ts = site_ts_;
    // Each copy child gets the writes it replicates, and only those.
    for (SiteId child : ctx_.routing->copy_graph().Children(ctx_.site)) {
      std::optional<SecondaryUpdate> projected =
          ProjectFor(child, Routing::Scope::kSite, update);
      if (projected.has_value()) PostToChild(child, std::move(*projected));
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
  // Rebuild the whole timestamp from the channel's previous one.
  Timestamp& received = received_ts_[env.src];
  update->ts = Timestamp::Rebuild(received, update->ts_shared, update->ts);
  update->ts_shared = 0;
  received = update->ts;
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
    co_await ApplySecondary(arrival, [&](int64_t) {
      // §3.2.3: TS(s) := TS(T) ⊕ (s, LTS_s), atomically with commit.
      site_ts_ = update.ts.ExtendedWith(Rank(), lts_, update.ts.epoch());
    });
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
  obs::Labels labels = ExportApplierObs("dag_t", queue_peak_);
  ctx_.obs
      ->GetCounter("lazyrep_engine_dummies_sent_total", labels,
                   "DAG(T) liveness dummy subtransactions sent")
      ->Increment(dummies_sent_);
  ctx_.obs
      ->GetCounter("lazyrep_engine_epoch_bumps_total", labels,
                   "DAG(T) epoch advances at this source")
      ->Increment(epoch_bumps_);
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

}  // namespace lazyrep::core
