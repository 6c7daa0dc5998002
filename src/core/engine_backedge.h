#ifndef LAZYREP_CORE_ENGINE_BACKEDGE_H_
#define LAZYREP_CORE_ENGINE_BACKEDGE_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/engine_dag_wt.h"

namespace lazyrep::core {

/// The BackEdge protocol (§4), as the extension of DAG(WT) the paper
/// implemented (§4.1, §5.1).
///
/// The copy graph may contain cycles. A backedge set `B` is removed to
/// obtain `Gdag`, and a tree `T` is built from `Gdag` (the paper's
/// implementation uses a chain). A transaction `Ti` at site `s_i` whose
/// updates must reach tree *ancestors* (backedge targets) goes through the
/// eager path:
///
///  1. after local execution (locks held, not committed), a backedge
///     subtransaction is sent directly to the farthest target `s_i1`;
///     it executes there and holds its locks;
///  2. a *special* secondary subtransaction relays the updates down the
///     tree path from `s_i1` toward `s_i`, executing (without committing)
///     at each site on the way;
///  3. when the special reaches `s_i` — after every earlier-received
///     secondary has committed there — `Ti` and all backedge
///     subtransactions commit atomically via two-phase commit;
///  4. the remaining (descendant) replicas are then updated lazily per
///     DAG(WT).
///
/// Global deadlocks are broken by lock timeout with the paper's victim
/// rule (Example 4.1): the backedge-pending transaction aborts, never the
/// secondary subtransaction.
///
/// Everything else is DAG(WT)'s, inherited: the forward queue and its
/// applier (which hands specials to `ApplySpecial`), forwarding, and the
/// lazy commit of step 4 and of transactions without backedge targets.
class BackEdgeEngine : public DagWtEngine {
 public:
  explicit BackEdgeEngine(Context ctx) : DagWtEngine(std::move(ctx)) {}

  runtime::Co<Status> ExecutePrimary(GlobalTxnId id,
                                 const workload::TxnSpec& spec) override;
  void OnMessage(ProtocolNetwork::Envelope env) override;
  /// Crash handling: unpinned backedge proxies die with the site
  /// (presumed abort — the origin is notified and broadcasts path
  /// aborts); pinned (yes-voted, prepared) proxies ride through and wait
  /// for the 2PC decision.
  void OnCrash() override;

  uint64_t backedge_txns() const { return backedge_txns_; }

  void ExportObs() override;

 protected:
  bool ProtocolIdle() const override;
  runtime::Co<void> ApplySpecial(SecondaryArrival arrival) override;
  const char* ObsProtocol() const override { return "backedge"; }

 private:
  /// Origin-site state for a primary waiting on its special
  /// subtransaction (backedge-pending).
  struct PendingPrimary {
    storage::TxnPtr txn;
    std::vector<WriteRecord> writes;
    std::vector<SiteId> path_sites;  // Everyone the special visits.
    std::shared_ptr<runtime::OneShot<bool>> outcome;  // true = committed.
  };

  /// Backedge-subtransaction proxy state at a path site.
  struct Proxy {
    storage::TxnPtr txn;
    bool executing = false;   // A coroutine is driving it right now.
    bool applied_any = false;
  };

  /// Runs a backedge subtransaction proxy for `origin` at this path
  /// site: applies `writes` and keeps the locks for the 2PC decision.
  /// False when the proxy was victimized (and rolled back) on the way.
  runtime::Co<bool> ExecuteProxy(GlobalTxnId origin, SiteId origin_site,
                                 const std::vector<WriteRecord>& writes);
  /// Executes the special at an intermediate/target path site (the
  /// farthest target runs the backedge start as one), then forwards it
  /// toward the origin.
  runtime::Co<void> ExecuteSpecialLocally(SecondaryUpdate update);
  /// Runs the atomic commit (2PC) of a pending primary whose special has
  /// arrived. Called from the applier; blocks it to preserve the local
  /// FIFO commit order.
  runtime::Co<void> CommitPendingPrimary(SecondaryUpdate update);
  void HandleBackedgeAbortAtOrigin(const GlobalTxnId& origin);
  void HandleBackedgeAbortAtPathSite(const GlobalTxnId& origin);
  runtime::Co<void> RollbackProxy(GlobalTxnId origin, bool tombstone);
  runtime::Co<void> HandleDecision(TpcDecision decision);
  /// Victim cleanup at the origin: broadcast aborts along the path and
  /// roll back the local transaction.
  runtime::Co<Status> AbortPendingPrimary(GlobalTxnId id,
                                      PendingPrimary pending);

  std::map<GlobalTxnId, PendingPrimary> pending_;
  std::map<GlobalTxnId, Proxy> proxies_;
  /// Origins known aborted: late specials/starts for them are dropped.
  std::set<GlobalTxnId> tombstones_;
  uint64_t backedge_txns_ = 0;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ENGINE_BACKEDGE_H_
