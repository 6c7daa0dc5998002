#ifndef LAZYREP_CORE_ENGINE_NAIVE_H_
#define LAZYREP_CORE_ENGINE_NAIVE_H_

#include <map>

#include "core/engine.h"

namespace lazyrep::core {

/// Indiscriminate lazy propagation — how the commercial systems the paper
/// criticizes (§1) behave: after a transaction commits, its updates are
/// pushed directly to every replica site and applied there in arrival
/// order, with no cross-site ordering control. Example 1.1's
/// non-serializable execution is possible (and the serializability
/// checker finds such cycles in randomized runs).
///
/// With `EngineOptions::naive_lww` the applier uses the common
/// reconciliation rule — install only updates with a newer origin commit
/// timestamp (last-writer-wins). Replicas then converge, but executions
/// are still not serializable in general (§1: "these rules do not
/// guarantee serializability unless the updates are commutative").
class NaiveLazyEngine : public ReplicationEngine {
 public:
  explicit NaiveLazyEngine(Context ctx);

  void Start() override;
  runtime::Co<Status> ExecutePrimary(GlobalTxnId id,
                                 const workload::TxnSpec& spec) override;
  void OnMessage(ProtocolNetwork::Envelope env) override;

  uint64_t lww_skipped() const { return lww_skipped_; }

 protected:
  /// The LWW reconciliation rule compares origin commit times.
  bool StampsOriginCommitTime() const override { return true; }
  bool ProtocolIdle() const override { return inbox_.empty() && !applying_; }

 private:
  runtime::Co<void> Applier();

  runtime::Mailbox<SecondaryArrival> inbox_;
  bool applying_ = false;
  /// LWW reconciliation state: per item, the origin commit time of the
  /// installed version.
  std::map<ItemId, SimTime> installed_version_;
  uint64_t lww_skipped_ = 0;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ENGINE_NAIVE_H_
