#ifndef LAZYREP_CORE_ENGINE_PSL_H_
#define LAZYREP_CORE_ENGINE_PSL_H_

#include <map>
#include <memory>
#include <set>

#include "core/engine.h"

namespace lazyrep::core {

/// Primary-site locking (PSL) — the paper's baseline (§5.1), a lazy
/// variant of the lazy-master approach:
///
///  * reads and writes of locally-primary items lock and execute locally;
///  * a read of a replica sends a lock request to the item's primary
///    site, which acquires an S lock on behalf of the transaction and
///    ships the current value back with the grant;
///  * updates touch only the primary copy and are never propagated —
///    remote reads always fetch from the primary, so replicas are pure
///    placement (their staleness is invisible);
///  * all locks (local and remote) are released when the transaction
///    commits; remote locks via release messages;
///  * a lock-wait timeout at the primary site is reported as a denial and
///    aborts the requesting transaction (global deadlock resolution).
class PslEngine : public ReplicationEngine {
 public:
  using ReplicationEngine::ReplicationEngine;

  runtime::Co<Status> ExecutePrimary(GlobalTxnId id,
                                 const workload::TxnSpec& spec) override;
  void OnMessage(ProtocolNetwork::Envelope env) override;

  uint64_t remote_reads() const { return remote_reads_; }

 protected:
  bool ProtocolIdle() const override {
    return pending_reads_.empty() && proxies_.empty();
  }

 private:
  runtime::Co<Status> RemoteRead(storage::TxnPtr txn, ItemId item,
                             std::set<SiteId>* contacted);
  runtime::Co<void> ServeLockRequest(SiteId requester, PslLockRequest request);
  runtime::Co<void> ReleaseProxy(GlobalTxnId origin, bool committed);

  uint64_t next_request_id_ = 1;
  std::map<uint64_t, std::shared_ptr<runtime::OneShot<PslLockResponse>>>
      pending_reads_;
  /// Proxies holding S locks at this (primary) site per remote origin.
  std::map<GlobalTxnId, storage::TxnPtr> proxies_;
  uint64_t remote_reads_ = 0;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ENGINE_PSL_H_
