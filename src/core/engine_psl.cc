#include "core/engine_psl.h"

namespace lazyrep::core {

PslEngine::PslEngine(Context ctx) : ReplicationEngine(std::move(ctx)) {}

runtime::Co<Status> PslEngine::ExecutePrimary(GlobalTxnId id,
                                          const workload::TxnSpec& spec) {
  storage::TxnPtr txn = ctx_.db->Begin(id, storage::TxnKind::kPrimary);
  std::set<SiteId> contacted;
  Status st = Status::OK();
  int op_index = 0;
  for (const workload::TxnOp& op : spec.ops) {
    if (op.is_write) {
      LAZYREP_CHECK_EQ(ctx_.routing->placement().primary[op.item],
                       ctx_.site);
      st = co_await ctx_.db->Write(txn, op.item,
                                   EncodeValue(id, op_index));
    } else if (ctx_.routing->placement().primary[op.item] == ctx_.site) {
      Value ignored = 0;
      st = co_await ctx_.db->Read(txn, op.item, &ignored);
    } else {
      st = co_await RemoteRead(txn, op.item, &contacted);
    }
    if (!st.ok()) break;
    ++op_index;
  }

  if (st.ok()) {
    st = co_await ctx_.db->Commit(txn, [&](int64_t) {
      // Close rule: the origin's record, unless every read was remote,
      // and one proxy record from each contacted primary site.
      if (ctx_.oracle == nullptr) return;
      const bool local = !txn->read_set().empty() || !txn->write_set().empty();
      ctx_.oracle->ExpectRecords(
          id, (local ? 1 : 0) + static_cast<int>(contacted.size()));
    });
  } else {
    co_await ctx_.db->Abort(txn);
  }
  // Remote locks are held until after the local commit/abort
  // (strictness); only then are the primaries told to release.
  for (SiteId s : contacted) {
    PslRelease release;
    release.origin = id;
    release.committed = st.ok();
    ctx_.net->Post(ctx_.site, s, ProtocolMessage(release));
  }
  co_return st;
}

runtime::Co<Status> PslEngine::RemoteRead(storage::TxnPtr txn, ItemId item,
                                      std::set<SiteId>* contacted) {
  if (txn->abort_requested()) co_return txn->abort_reason();
  SiteId primary = ctx_.routing->placement().primary[item];
  ++remote_reads_;
  PslLockRequest request;
  request.origin = txn->id();
  request.item = item;
  request.request_id = next_request_id_++;
  auto cell = std::make_shared<runtime::OneShot<PslLockResponse>>(ctx_.rt);
  pending_reads_.emplace(request.request_id, cell);
  contacted->insert(primary);
  ctx_.net->Post(ctx_.site, primary, ProtocolMessage(request));
  PslLockResponse response = co_await cell->Wait();
  pending_reads_.erase(request.request_id);
  if (!response.granted) {
    co_return Status::DeadlockAbort("remote S-lock denied (timeout)");
  }
  if (txn->abort_requested()) co_return txn->abort_reason();
  // The freshest committed value arrived with the grant; nothing is read
  // from the (stale) local replica. Record the read locally for response
  // accounting only — the conflict is recorded at the primary by the
  // proxy.
  co_return Status::OK();
}

void PslEngine::OnMessage(ProtocolNetwork::Envelope env) {
  if (auto* request = std::get_if<PslLockRequest>(&env.payload)) {
    ++active_serves_;
    ctx_.rt->Spawn(ServeLockRequest(env.src, std::move(*request)));
  } else if (auto* response = std::get_if<PslLockResponse>(&env.payload)) {
    auto it = pending_reads_.find(response->request_id);
    LAZYREP_CHECK(it != pending_reads_.end());
    it->second->TryFire(std::move(*response));
  } else if (auto* release = std::get_if<PslRelease>(&env.payload)) {
    ctx_.rt->Spawn(ReleaseProxy(release->origin, release->committed));
  } else {
    LAZYREP_CHECK(false) << "unexpected message kind for PSL";
  }
}

runtime::Co<void> PslEngine::ServeLockRequest(SiteId requester,
                                          PslLockRequest request) {
  LAZYREP_CHECK_EQ(ctx_.routing->placement().primary[request.item],
                   ctx_.site);
  auto [it, inserted] = proxies_.emplace(request.origin, nullptr);
  if (inserted) {
    it->second =
        ctx_.db->Begin(request.origin, storage::TxnKind::kRemoteProxy);
  }
  storage::TxnPtr proxy = it->second;
  Status st = co_await ctx_.db->AcquireOnly(proxy, request.item,
                                            storage::LockMode::kShared);
  PslLockResponse response;
  response.origin = request.origin;
  response.item = request.item;
  response.request_id = request.request_id;
  response.granted = st.ok();
  if (st.ok()) {
    Result<Value> v = ctx_.db->store().Get(request.item);
    LAZYREP_CHECK(v.ok());
    response.value = *v;
  }
  ctx_.net->Post(ctx_.site, requester, ProtocolMessage(response));
  --active_serves_;
}

runtime::Co<void> PslEngine::ReleaseProxy(GlobalTxnId origin, bool committed) {
  auto it = proxies_.find(origin);
  if (it == proxies_.end()) co_return;
  storage::TxnPtr proxy = it->second;
  proxies_.erase(it);
  if (proxy->state() != storage::TxnState::kActive) co_return;
  if (committed && !proxy->abort_requested()) {
    // Committing the proxy records this transaction's reads in the
    // primary site's serialization order.
    Status st = co_await ctx_.db->Commit(proxy);
    LAZYREP_CHECK(st.ok()) << st.ToString();
  } else {
    co_await ctx_.db->Abort(proxy);
  }
}

bool PslEngine::Quiescent() const {
  return pending_reads_.empty() && proxies_.empty() && active_serves_ == 0;
}

}  // namespace lazyrep::core
