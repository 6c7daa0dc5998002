#ifndef LAZYREP_CORE_ENGINE_DAG_T_H_
#define LAZYREP_CORE_ENGINE_DAG_T_H_

#include <map>
#include <memory>

#include "core/engine.h"
#include "core/timestamp.h"

namespace lazyrep::core {

/// DAG(T) — "DAG with Timestamps" (§3).
///
/// Requires an acyclic copy graph. Updates are sent directly along
/// copy-graph edges to the relevant children (no relaying through
/// intermediate sites), ordered at each receiver by the vector timestamps
/// of Definitions 3.1–3.3:
///
///  * the site keeps a timestamp vector `TS(s)`; a committing primary
///    bumps the site's own counter and stamps its subtransactions with
///    `TS(s)` (§3.2.2, done atomically with commit);
///  * one incoming FIFO queue per copy-graph parent; the single applier
///    repeatedly waits until every queue is non-empty and executes the
///    minimum-timestamp head (§3.2.3);
///  * committing a secondary with timestamp `TS(T)` sets
///    `TS(s) = TS(T) ⊕ (s, LTS_s)`;
///  * progress (§3.3): timestamps carry an epoch number that dominates
///    the comparison; sources advance their epoch periodically, and a
///    site that has not talked to a child for a while sends a *dummy*
///    subtransaction that only pushes the child's timestamp forward.
class DagTEngine : public ReplicationEngine {
 public:
  explicit DagTEngine(Context ctx);

  void Start() override;
  runtime::Co<Status> ExecutePrimary(GlobalTxnId id,
                                 const workload::TxnSpec& spec) override;
  void OnMessage(ProtocolNetwork::Envelope env) override;

  const Timestamp& site_timestamp() const { return site_ts_; }
  uint64_t dummies_sent() const { return dummies_sent_; }
  uint64_t epoch_bumps() const { return epoch_bumps_; }

  void ExportObs() override;

 protected:
  bool ProtocolIdle() const override {
    return !applying_real_ && pending_real_ == 0;
  }

 private:
  /// This site's rank in the total site order used inside timestamps.
  int Rank() const { return ctx_.routing->TopoRank(ctx_.site); }

  /// The one post path, for primaries and dummies alike: records the
  /// send time and ships `update.ts` as a delta against the timestamp
  /// last sent to `child` (`SecondaryUpdate::ts_shared`).
  void PostToChild(SiteId child, SecondaryUpdate update);
  runtime::Co<void> Applier();
  runtime::Co<void> EpochTicker();
  runtime::Co<void> DummySender();

  /// Site timestamp; always ends with this site's own tuple (rank, lts).
  Timestamp site_ts_;
  int64_t lts_ = 0;

  /// One queue per copy-graph parent.
  std::map<SiteId, std::unique_ptr<runtime::Mailbox<SecondaryArrival>>>
      queues_;
  /// The last timestamp received from each parent, which the next delta
  /// on that channel extends. Channels are exactly-once FIFO, so once a
  /// channel drains it equals the sender's `sent_ts_` entry for this site.
  std::map<SiteId, Timestamp> received_ts_;
  bool applying_real_ = false;
  /// Queued non-dummy updates across all parent queues, maintained by
  /// OnMessage/Applier (both home-lane-confined). Makes ProtocolIdle O(1)
  /// instead of a scan over every queued item — the quiesce poll calls
  /// it for all m sites, which at 128 sites with deep queues was itself
  /// a scaling hazard.
  int64_t pending_real_ = 0;
  std::map<SiteId, SimTime> last_sent_;
  /// The last timestamp sent to each child (whole, not the delta).
  std::map<SiteId, Timestamp> sent_ts_;
  uint64_t dummies_sent_ = 0;
  uint64_t epoch_bumps_ = 0;
  /// High watermark over the per-parent queue lengths (machine-confined;
  /// exported at quiescence).
  size_t queue_peak_ = 0;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ENGINE_DAG_T_H_
