#ifndef LAZYREP_CORE_CONFIG_H_
#define LAZYREP_CORE_CONFIG_H_

#include <optional>
#include <string>

#include "common/sim_time.h"
#include "fault/fault_plan.h"
#include "graph/copy_graph.h"
#include "runtime/runtime.h"
#include "sim/schedule_policy.h"
#include "storage/database.h"
#include "storage/lock_manager.h"
#include "workload/params.h"

namespace lazyrep::core {

/// The update-propagation protocols implemented by this library.
enum class Protocol {
  /// DAG(WT) — §2: lazy propagation along a tree built from the (acyclic)
  /// copy graph, FIFO commit order at each site.
  kDagWt,
  /// DAG(T) — §3: lazy propagation along copy-graph edges, ordered by
  /// vector timestamps with epochs for progress.
  kDagT,
  /// BackEdge — §4: hybrid; eager along backedges (2PC), DAG(WT)-lazy on
  /// the remaining DAG. Handles arbitrary copy graphs.
  kBackEdge,
  /// Primary-site locking — §5.1 baseline: remote reads take an S lock at
  /// the item's primary site and ship the value; updates stay at the
  /// primary and are never propagated.
  kPsl,
  /// Indiscriminate lazy propagation, as in the commercial systems of §1.
  /// NOT serializable — used as a negative control and for the
  /// reconciliation (last-writer-wins) discussion.
  kNaiveLazy,
  /// Eager read-one/write-all with 2PC — the intro's scalability foil.
  kEager,
};

std::string ProtocolName(Protocol protocol);

/// How the DAG(WT)/BackEdge propagation tree is built.
enum class TreeKind {
  kChain,   // The paper's implementation (§5.1).
  kGreedy,  // Branching tree when the DAG allows it.
};

/// How the BackEdge protocol picks the backedge set B.
enum class BackedgeMethod {
  /// Edges backward in the natural site order (§5.2's experimental
  /// definition; consistent with the chain).
  kSiteOrder,
  /// Minimal set via depth-first search (§4).
  kDfs,
  /// Greedy feedback-arc-set heuristic, unweighted (§4.2).
  kGreedy,
  /// §4.2's full proposal: weight every copy edge by the frequency with
  /// which updates must be propagated along it (here: the number of items
  /// whose primary/replica pair induces the edge, since writes are
  /// uniform over each site's primaries) and minimize the backedge set's
  /// total weight — fewer transactions take the eager path.
  kWeightedGreedy,
};

/// What a worker thread does when its primary transaction aborts.
enum class RetryPolicy {
  kNone,             // Count the abort and move to the next transaction.
  kRetryUntilCommit, // Re-run (as a fresh transaction) until it commits.
};

/// CPU / messaging cost model. Defaults are calibrated so that the
/// default-parameter run reproduces the paper's qualitative shape (see
/// EXPERIMENTS.md); absolute 1999-hardware numbers are out of scope.
struct CostModel {
  /// Per-operation storage CPU (charged to the site's machine CPU).
  storage::OpCosts op;
  /// CPU to apply one propagated write at a secondary.
  Duration secondary_apply_cpu = Micros(120);
  /// Per-message CPU at the sender / receiver (1999 TCP stacks cost far
  /// more than the wire).
  Duration msg_send_cpu = Micros(500);
  Duration msg_recv_cpu = Micros(500);
  /// Extra uniform network latency on top of Params::network_latency.
  Duration net_jitter = 0;
  /// Network bandwidth in bytes/second (the paper's 10 Mbit ethernet =
  /// 1.25e6); transmission time uses real encoded message sizes
  /// (core/wire.h). 0 disables the bandwidth model.
  uint64_t net_bandwidth_bytes_per_sec = 1250000;
  /// Latency between co-located sites (loopback TCP, off the wire).
  Duration loopback_latency = Micros(50);
  /// When false, no machine CPU is modelled (pure latency/lock study).
  bool model_cpu = true;

  bool operator==(const CostModel&) const = default;
};

/// Protocol-specific knobs.
struct EngineOptions {
  TreeKind tree = TreeKind::kChain;
  BackedgeMethod backedge_method = BackedgeMethod::kSiteOrder;
  /// DAG(T) §3.3: period at which sources advance their epoch.
  /// Chosen so dummy traffic (below) stays well under the per-message CPU
  /// budget — at 5 ms the dummies alone can saturate a shared machine
  /// CPU and starve the workload.
  Duration epoch_period = Millis(25);
  /// DAG(T) §3.3: lull after which a site sends a dummy subtransaction to
  /// a child it has not talked to.
  Duration dummy_period = Millis(25);
  /// NaiveLazy: apply last-writer-wins reconciliation by origin commit
  /// time instead of blind apply (the commercial reconciliation rule of
  /// §1 — converges, still not serializable).
  bool naive_lww = false;
  /// Local deadlock handling (timeout is the paper's choice; wait-die is
  /// the prevention alternative built for multi-worker sites).
  storage::DeadlockPolicy deadlock_policy =
      storage::DeadlockPolicy::kTimeoutOnly;
  /// Lock grant scheduling (immediate matches main-memory DBMS practice;
  /// FIFO is an ablation).
  storage::GrantPolicy grant_policy = storage::GrantPolicy::kImmediate;
  /// Hash stripes in each site's lock table (>= 1). Striping is
  /// schedule-neutral, so the default applies under both backends; it
  /// only matters for contention with `workers_per_site > 1`.
  int lock_stripes = 8;

  bool operator==(const EngineOptions&) const = default;
};

/// Transport-level batching (docs/PERFORMANCE.md §6): frame coalescing
/// in the reliable-delivery layer and WAL group commit. All off by
/// default — fault-free sim schedules stay byte-identical to a build
/// without this struct. Enabling any knob routes traffic through
/// `fault::ReliableTransport` even when no faults are injected. Acks are
/// not a knob: the transport always delays them (docs/FAULTS.md).
struct BatchingOptions {
  /// Flush lull for a channel's send buffer (`--batch-window`): messages
  /// posted within the window coalesce into one `ReliableBatch` frame.
  /// 0 disables coalescing (every post ships immediately). A buffer
  /// also flushes early once it holds
  /// `fault::ReliableTransport::kBatchBytes` (16 KiB) of encodings.
  Duration window = 0;
  /// WAL group commit at secondaries: one delivered batch = one WAL sync
  /// boundary instead of one per applied subtransaction.
  bool wal_group_commit = false;
  /// Force the reliable transport into the stack even with every knob
  /// off — the bench baseline arm, so frames/txn is measured against the
  /// same ARQ layer rather than against no transport at all.
  bool force_transport = false;

  bool enabled() const {
    return window > 0 || wal_group_commit || force_transport;
  }

  bool operator==(const BatchingOptions&) const = default;
};

/// Full description of one simulated system run.
struct SystemConfig {
  Protocol protocol = Protocol::kBackEdge;
  workload::Params workload;
  CostModel costs;
  EngineOptions engine;
  RetryPolicy retry = RetryPolicy::kNone;
  /// Executor backend. `kSim` (default) is the deterministic
  /// discrete-event simulation; `kThreads` maps machines to OS threads
  /// over real time (measured metrics, no determinism, and the scripted
  /// single-transaction APIs are unavailable).
  runtime::RuntimeKind runtime = runtime::RuntimeKind::kSim;
  /// Worker lanes per site's machine under `kThreads` (`--workers=N`):
  /// each machine runs `workers_per_site` executor lanes and a site's
  /// transactions spread across its machine's lanes (site-confined,
  /// worker-mobile — see DESIGN.md "Worker model"). Rejected when > 1
  /// under `kSim`, like schedule perturbation under `kThreads`: the sim
  /// models one logical executor, and faking parallel lanes there would
  /// either change every golden schedule or silently measure nothing.
  int workers_per_site = 1;
  uint64_t seed = 1;
  /// Run the streaming oracle (docs/CHECKING.md), which checks
  /// serializability and read/snapshot consistency as commits stream in.
  /// Off, no check runs (`RunMetrics::checked` stays false). The full
  /// history is kept only when `enable_trace` is set as well.
  bool check_serializability = true;
  /// Record a protocol event trace (commits/aborts, messages, lock
  /// waits/timeouts) — see core/trace.h. Debugging aid.
  bool enable_trace = false;
  /// Maintain per-site redo WALs.
  bool enable_wal = false;
  /// Per-session read consistency (`--consistency=`, docs/MVCC.md).
  /// kSerializable (default) keeps strict-2PL reads and leaves every
  /// schedule byte-identical; kSnapshot routes read-only transactions
  /// through the lock-free watermark path; kRyw additionally pins each
  /// session's floor to its own last commit stamp. Non-default levels
  /// enable the multi-version store and are rejected for kPsl (PSL
  /// serves remote reads at the primary and never propagates, so a
  /// secondary watermark would be permanently stale).
  storage::ConsistencyLevel consistency =
      storage::ConsistencyLevel::kSerializable;
  /// Version-chain GC period, in publications (docs/MVCC.md §GC).
  int mvcc_gc_interval = 128;
  /// Fault injection (src/fault/): per-message network faults route all
  /// traffic through the reliable-delivery layer; scheduled crashes
  /// additionally require `enable_wal` and one of the lazy tree
  /// protocols (DAG(WT)/DAG(T)/BackEdge) with batching off.
  std::optional<fault::FaultPlan> faults;
  /// Transport batching (frame coalescing / WAL group commit).
  /// Independent of `faults`: enabling it constructs the reliable
  /// transport even without an injector.
  BatchingOptions batching;
  /// Schedule-exploration perturbations (lazychk, docs/CHECKING.md):
  /// seeded random tie-breaks, delivery jitter and lock-grant order.
  /// Requires the sim runtime (rejected under `kThreads` — perturbation
  /// presumes a replayable schedule). Absent or all-dimensions-off
  /// leaves every schedule bit-for-bit identical to the default.
  std::optional<sim::SchedulePolicyConfig> schedule;
  /// Explicit placement; when absent one is generated from `workload`.
  std::optional<graph::Placement> placement;
  /// Measurement warmup: transactions that start before this much
  /// virtual time are executed but excluded from throughput/response/
  /// abort metrics (standard steady-state practice; the paper measured
  /// from a cold start).
  Duration warmup = 0;
  /// Safety cap on virtual time (0 = none); hitting it flags the run.
  Duration max_sim_time = 0;

  bool operator==(const SystemConfig&) const = default;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_CONFIG_H_
