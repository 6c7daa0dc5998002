#ifndef LAZYREP_CORE_ENGINE_EAGER_H_
#define LAZYREP_CORE_ENGINE_EAGER_H_

#include <map>

#include "core/engine.h"

namespace lazyrep::core {

/// Eager read-one/write-all replication — the approach whose scalability
/// problems motivate the paper (§1: transaction size grows with the
/// degree of replication, and deadlock probability with the fourth power
/// of transaction size).
///
/// Reads lock the local copy. At commit time the transaction runs a 2PC
/// with every site holding a replica of an updated item: participants
/// acquire X locks on their replicas (a single attempt bounded by the
/// lock timeout — a distributed deadlock makes them vote no), apply the
/// writes, and hold locks until the decision. Serializable (the checker
/// agrees), but aborts climb quickly with replication.
class EagerEngine : public ReplicationEngine {
 public:
  using ReplicationEngine::ReplicationEngine;

  runtime::Co<Status> ExecutePrimary(GlobalTxnId id,
                                 const workload::TxnSpec& spec) override;
  void OnMessage(ProtocolNetwork::Envelope env) override;

 protected:
  bool ProtocolIdle() const override { return prepared_.empty(); }

 private:
  runtime::Co<void> HandlePrepare(SiteId coordinator, TpcPrepare prepare);
  runtime::Co<void> HandleDecision(TpcDecision decision);

  /// Participant-side prepared transactions holding replica X locks.
  struct Prepared {
    storage::TxnPtr txn;
    bool applied_any = false;
  };
  std::map<GlobalTxnId, Prepared> prepared_;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ENGINE_EAGER_H_
