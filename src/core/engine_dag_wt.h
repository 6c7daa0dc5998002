#ifndef LAZYREP_CORE_ENGINE_DAG_WT_H_
#define LAZYREP_CORE_ENGINE_DAG_WT_H_

#include <vector>

#include "core/engine.h"

namespace lazyrep::core {

/// DAG(WT) — "DAG Without Timestamps" (§2).
///
/// Requires an acyclic copy graph. Updates travel along the edges of a
/// tree `T` built from the DAG (copy-graph child ⇒ tree descendant). At
/// each site:
///
///  * primary subtransactions execute completely locally and, atomically
///    with commit, forward their writes to the *relevant* tree children
///    (children whose subtree stores a replica of an updated item);
///  * forwarded secondary subtransactions are committed strictly in the
///    order received from the (single) tree parent, re-forwarding
///    atomically with their commit — which makes each site see every
///    transaction after everything serialized before it (Theorem 2.1);
///  * a secondary subtransaction is never a deadlock victim: on a lock
///    timeout it aborts a blocking holder and is resubmitted.
class DagWtEngine : public ReplicationEngine {
 public:
  explicit DagWtEngine(Context ctx);

  void Start() override;
  runtime::Co<Status> ExecutePrimary(GlobalTxnId id,
                                 const workload::TxnSpec& spec) override;
  void OnMessage(ProtocolNetwork::Envelope env) override;

  void ExportObs() override;

 protected:
  bool ProtocolIdle() const override { return inbox_.empty() && !applying_; }

  /// Commits a primary that needs no eager work and propagates it
  /// lazily: the origin's update goes to the relevant tree children
  /// atomically with the commit.
  runtime::Co<Status> CommitLazily(storage::TxnPtr txn, GlobalTxnId id,
                                   const std::vector<WriteRecord>& writes);

  /// Posts to every relevant tree child of this site the writes of
  /// `update` replicated in that child's subtree. Called inside commit
  /// atomic hooks so forwarding order equals commit order.
  void ForwardToRelevantChildren(const SecondaryUpdate& update);

  /// Applier hook for a special secondary subtransaction (BackEdge's
  /// eager path, §4.1); DAG(WT) itself never receives one.
  virtual runtime::Co<void> ApplySpecial(SecondaryArrival arrival);

  /// Protocol label of the exported obs cells.
  virtual const char* ObsProtocol() const { return "dag_wt"; }

 private:
  runtime::Co<void> Applier();

  runtime::Mailbox<SecondaryArrival> inbox_;  // From the tree parent.
  bool applying_ = false;
  /// High watermark of the forward-queue length (machine-confined;
  /// exported at quiescence).
  size_t inbox_peak_ = 0;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ENGINE_DAG_WT_H_
