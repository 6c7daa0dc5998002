#ifndef LAZYREP_CORE_ENGINE_H_
#define LAZYREP_CORE_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.h"
#include "core/config.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/routing.h"
#include "core/streaming_oracle.h"
#include "fault/fault_injector.h"
#include "net/network.h"
#include "net/transport.h"
#include "obs/registry.h"
#include "runtime/primitives.h"
#include "runtime/runtime.h"
#include "storage/database.h"
#include "workload/generator.h"

namespace lazyrep::core {

using ProtocolNetwork = net::Network<ProtocolMessage>;
using ProtocolTransport = net::Transport<ProtocolMessage>;

/// One secondary subtransaction in an engine apply queue, tagged with
/// the transport's batch boundary (`Envelope::batch_end`). WAL group
/// commit defers the per-commit sync for every arrival except the last
/// of its delivered batch; a single (unbatched) delivery is its own
/// boundary, so the default keeps per-commit syncing.
struct SecondaryArrival {
  SecondaryUpdate update;
  bool batch_end = true;
};

/// Per-site protocol engine. One instance runs at each site; the System
/// wires them to the site's Database and the shared Network, then drives
/// primary transactions through `ExecutePrimary` from the workload
/// threads. Network deliveries arrive through `OnMessage`.
class ReplicationEngine {
 public:
  struct Context {
    SiteId site = kInvalidSite;
    /// Executor waist. Engines must stay backend-agnostic: no direct
    /// simulator access, no wall-clock reads, no threads of their own.
    runtime::Runtime* rt = nullptr;
    /// The site's *home executor lane* (`System::home_exec`): the lane
    /// that owns all of the site's confined state — engine maps and
    /// queues, WAL recovery, and the commit order itself. Background
    /// processes spawned from `Start()` (which runs on the driver
    /// thread) must target it via `rt->SpawnOn(machine, ...)`; message
    /// handlers already run on it (the network delivers to the home
    /// lane). Transaction bodies may run on *any* lane of the site's
    /// machine under `workers_per_site > 1` — mobile engines hop home
    /// (`rt->RunOn(machine)`) before committing or touching engine
    /// state. With one worker per site this is exactly the machine
    /// index, as before.
    int machine = 0;
    storage::Database* db = nullptr;
    /// Message egress — the raw Network, or the reliable-delivery layer
    /// when a FaultPlan is enabled or any transport batching knob is on.
    ProtocolTransport* net = nullptr;
    std::shared_ptr<const Routing> routing;
    MetricsCollector* metrics = nullptr;
    /// The streaming serializability oracle; nullptr when not checking.
    StreamingOracle* oracle = nullptr;
    /// Labelled metrics registry (the System's; always set).
    obs::MetricsRegistry* obs = nullptr;
    const SystemConfig* config = nullptr;
    /// Site up/down state under fault injection; nullptr without faults.
    fault::FaultInjector* faults = nullptr;
  };

  explicit ReplicationEngine(Context ctx) : ctx_(std::move(ctx)) {}
  virtual ~ReplicationEngine() = default;

  ReplicationEngine(const ReplicationEngine&) = delete;
  ReplicationEngine& operator=(const ReplicationEngine&) = delete;

  /// Spawns the engine's background processes (appliers, tickers).
  virtual void Start() {}

  /// Stops periodic background processes; in-flight work still drains.
  void BeginShutdown() { shutdown_ = true; }

  /// Runs one primary transaction to commit or abort. An abort leaves no
  /// local or remote residue (rollback is complete when this returns or
  /// shortly after via already-posted abort notifications).
  virtual runtime::Co<Status> ExecutePrimary(GlobalTxnId id,
                                         const workload::TxnSpec& spec) = 0;

  /// Runs one read-only transaction through the lock-free MVCC snapshot
  /// path (docs/MVCC.md): picks the site's watermark, traverses version
  /// chains without touching the lock manager, and retires without
  /// consuming a commit sequence. Protocol-independent — the snapshot
  /// cut is defined purely by the local commit order every engine
  /// already produces. Under `kRyw` it first waits until this site has
  /// applied the session's own last commit. Requires
  /// `SystemConfig::consistency != kSerializable`.
  runtime::Co<Status> ExecuteSnapshotRead(GlobalTxnId id,
                                          const workload::TxnSpec& spec,
                                          storage::Session* session);

  /// Network delivery for this site.
  virtual void OnMessage(ProtocolNetwork::Envelope env) = 0;

  /// No protocol work pending at this site: no counted handler in flight
  /// (SpawnCounted), no 2PC awaiting votes or acks, and ProtocolIdle.
  /// Dummy/epoch traffic does not count.
  bool Quiescent() const {
    return handlers_in_flight_ == 0 && votes_.empty() &&
           outstanding_acks_ == 0 && ProtocolIdle();
  }

  /// The site just lost its volatile state (fault injection). Engines
  /// with transaction proxies must resolve any that no coroutine will
  /// drive again; engine queues and in-flight applier state are declared
  /// durable (docs/FAULTS.md) and survive untouched.
  virtual void OnCrash() {}

  /// The site's store has been recovered from the WAL and it is about to
  /// be marked up again.
  virtual void OnRestart() {}

  /// Exports protocol-specific counters (dummy subtransactions, epoch
  /// bumps, FIFO-queue high watermarks, ...) into `ctx_.obs`. Called by
  /// the System at quiescence, single-threaded — engines may read their
  /// machine-confined state directly.
  virtual void ExportObs() {}

  SiteId site() const { return ctx_.site; }

 protected:
  /// The engine's part of Quiescent: queues, proxies and pending
  /// coordinations empty.
  virtual bool ProtocolIdle() const = 0;

  /// Launches a message handler or proxy rollback, counted in flight
  /// until it ends. The wrapper awaits `handler` by symmetric transfer,
  /// so it schedules no event of its own.
  void SpawnCounted(runtime::Co<void> handler) {
    ++handlers_in_flight_;
    ctx_.rt->Spawn(Counted(std::move(handler)));
  }

  /// 2PC coordinator, phase one: posts one prepare per participant, in
  /// order, then awaits every vote. True when all voted yes (at once
  /// when there are none). With `writes`, each prepare carries the
  /// writes its participant replicates.
  runtime::Co<bool> CollectVotes(GlobalTxnId id,
                                 const std::vector<SiteId>& participants,
                                 const std::vector<WriteRecord>* writes);

  /// 2PC coordinator, phase two: posts the decision to every participant
  /// and counts each ack as outstanding.
  void BroadcastDecision(GlobalTxnId id, bool commit,
                         const std::vector<SiteId>& participants);

  /// A 2PC reply to this coordinator: a `TpcVote` counts toward its
  /// CollectVotes, a `TpcAck` retires an ack. False for anything else.
  bool OnTpcReply(const ProtocolMessage& msg);

  /// 2PC participant, decision step: commits the prepared `txn` (which
  /// cannot fail) or aborts it, notes the secondary when it
  /// `applied_any`, then acks the coordinator.
  runtime::Co<void> FinishPrepared(GlobalTxnId origin, storage::TxnPtr txn,
                                   bool commit, bool applied_any);

  /// Acknowledges `origin`'s 2PC decision to its coordinator.
  void AckDecision(GlobalTxnId origin) {
    ctx_.net->Post(ctx_.site, origin.origin_site,
                   ProtocolMessage(TpcAck{origin}));
  }

  /// Executes the spec's operations locally under strict 2PL (the common
  /// primary-subtransaction body of all lazy protocols: every read and
  /// write is local, §1.1). On abort the transaction is already rolled
  /// back. `writes` receives the (item, value) list in first-write order.
  runtime::Co<Status> RunLocalTxn(storage::TxnPtr txn,
                              const workload::TxnSpec& spec,
                              std::vector<WriteRecord>* writes);

  /// Acquires an X lock for a secondary/backedge subtransaction, applying
  /// the paper's rules: the subtransaction is never the victim — on
  /// timeout it aborts a blocking holder (preferring a backedge-pending
  /// transaction, then the latest-arriving victimizable one) and retries.
  /// Returns false only when `txn` itself was marked for abort (possible
  /// for backedge proxies chosen as part of a victimized global
  /// transaction).
  runtime::Co<bool> AcquireXAsSecondary(storage::Transaction* txn, ItemId item);

  /// The primary step of the lazy engines: runs `txn` locally
  /// (RunLocalTxn), then hops to the home lane — the commit order and
  /// everything the commit hook touches are home-lane-confined (no-op
  /// under kSim and when the transaction already ran there) — and
  /// honours a victimization that landed during the hop. On a non-OK
  /// status the transaction is already rolled back.
  runtime::Co<Status> RunPrimaryAtHome(storage::TxnPtr txn,
                                       const workload::TxnSpec& spec,
                                       std::vector<WriteRecord>* writes);

  /// Applies `writes` (filtered to items replicated at this site) under
  /// locks acquired via AcquireXAsSecondary and charges apply CPU.
  /// Returns false when `txn` was marked for abort mid-way; out-param
  /// reports whether any item was applied.
  runtime::Co<bool> ApplySecondaryWrites(storage::TxnPtr txn,
                                     const std::vector<WriteRecord>& writes,
                                     bool* applied_any);

  /// The apply step of the ordered lazy engines: runs `arrival` as a
  /// secondary subtransaction (never aborted) and commits it with
  /// `on_commit` in the commit's atomic region. Under group commit every
  /// arrival but the last of its delivered batch defers the WAL sync;
  /// the batch's last commit seals them all (the boundary is cumulative).
  runtime::Co<void> ApplySecondary(
      const SecondaryArrival& arrival,
      std::function<void(int64_t commit_seq)> on_commit);

  /// After a secondary subtransaction commits: advances the per-origin
  /// applied tracker (RYW, docs/MVCC.md) and, when it `applied` anything,
  /// closes this site's propagation sample.
  void NoteSecondaryCommitted(const SecondaryUpdate& update, bool applied);

  /// From the origin's commit hook (`seq` is the hook's commit sequence):
  /// builds the lazy update carrying `writes` and registers its
  /// propagation to every replica target.
  SecondaryUpdate OriginUpdate(const GlobalTxnId& id,
                               const std::vector<WriteRecord>& writes,
                               int64_t seq);

  /// Whether OriginUpdate stamps `origin_commit_time`. Only NaiveLazy's
  /// LWW applier reads it.
  virtual bool StampsOriginCommitTime() const { return false; }

  /// The writes of `writes` that `dest` needs under `scope`
  /// (Routing::Project), in their order: a copy of `writes` when it needs
  /// them all, empty when it needs none.
  std::vector<WriteRecord> WritesFor(
      SiteId dest, Routing::Scope scope,
      const std::vector<WriteRecord>& writes) const;

  /// `update` carrying only the writes `dest` needs (WritesFor), or
  /// nothing when a lazy `dest` needs none. A path hop
  /// (`Scope::kPath`) always has a value: it is the special's step
  /// toward the origin, posted even when it carries no writes.
  std::optional<SecondaryUpdate> ProjectFor(SiteId dest, Routing::Scope scope,
                                            const SecondaryUpdate& update) const;

  /// From the origin's commit hook: registers `id`'s propagation to
  /// `targets` replica sites with the metrics, and tells the oracle to
  /// expect the origin's record plus one from each target (the close
  /// rule, docs/CHECKING.md).
  void RegisterPropagation(const GlobalTxnId& id, int targets) {
    ctx_.metrics->RegisterPropagation(id, targets, ctx_.rt->Now());
    if (ctx_.oracle != nullptr) ctx_.oracle->ExpectRecords(id, 1 + targets);
  }

  /// Exports the cells every ordered lazy engine shares — secondaries
  /// committed and the apply-queue high watermark — and returns the
  /// labels for the engine's own cells.
  obs::Labels ExportApplierObs(const char* protocol, size_t queue_peak);

  /// Victim selection used by AcquireXAsSecondary after a timeout.
  void AbortOneBlocker(storage::Transaction* waiter, ItemId item);

  /// WAL group commit on (docs/PERFORMANCE.md §6): secondary appliers
  /// defer the per-commit WAL sync until the batch boundary.
  bool GroupCommit() const { return ctx_.config->batching.wal_group_commit; }

  /// True unless fault injection currently has this site crashed.
  bool SiteUp() const {
    return ctx_.faults == nullptr || ctx_.faults->IsUp(ctx_.site);
  }

  /// Suspends while this site is crashed; immediate no-op otherwise.
  runtime::Co<void> AwaitSiteUp() {
    if (ctx_.faults != nullptr) co_await ctx_.faults->AwaitUp(ctx_.site);
  }

  Context ctx_;
  bool shutdown_ = false;
  /// Secondary subtransactions ApplySecondary committed (home-lane-
  /// confined; exported at quiescence).
  uint64_t secondaries_committed_ = 0;

 private:
  struct VoteState {
    int outstanding = 0;
    bool all_yes = true;
    std::shared_ptr<runtime::Event> done;
  };

  runtime::Co<void> Counted(runtime::Co<void> handler);

  std::map<GlobalTxnId, VoteState> votes_;
  int outstanding_acks_ = 0;
  int handlers_in_flight_ = 0;
};

/// Factory: builds the engine for `config.protocol` at `ctx.site`.
std::unique_ptr<ReplicationEngine> MakeEngine(
    ReplicationEngine::Context ctx);

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ENGINE_H_
