#ifndef LAZYREP_CORE_SYSTEM_H_
#define LAZYREP_CORE_SYSTEM_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/result.h"
#include "core/engine.h"
#include "core/history.h"
#include "core/metrics.h"
#include "core/streaming_oracle.h"
#include "core/trace.h"
#include "fault/fault_injector.h"
#include "fault/reliable_transport.h"
#include "net/network.h"
#include "obs/registry.h"
#include "runtime/primitives.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"

#include "workload/generator.h"

namespace lazyrep::core {

/// The configuration-only checks `System::Create` runs before assembling
/// anything: knob ranges and knob combinations that cannot work, each
/// rejected with the reason. Pure — no placement is generated, so checks
/// that need the copy graph (a DAG protocol on a cyclic graph) still
/// happen in `Create`. Front ends call it after parsing their flags.
Status Validate(const SystemConfig& config);

/// A complete replicated-database system: machines (shared CPU
/// resources), sites (database + protocol engine), the network, and the
/// workload threads of §5.2 — all running over a `runtime::Runtime`
/// backend chosen by `SystemConfig::runtime`:
///
///  - `kSim` (default): single-threaded discrete-event simulation,
///    bit-for-bit deterministic for a given seed.
///  - `kThreads`: each machine is an OS thread; time is the wall clock,
///    so metrics are measured rather than modelled (and vary run to run).
///
/// Typical use:
///
///   SystemConfig config;
///   config.protocol = Protocol::kBackEdge;
///   auto system = System::Create(config);
///   RunMetrics metrics = system.value()->Run();
///
/// `Run` drives the workload to completion, waits for propagation to
/// quiesce, and returns the paper's metrics (plus serializability and
/// convergence verdicts).
class System {
 public:
  /// Validates the configuration (e.g. DAG protocols on DAG graphs) and
  /// assembles the system.
  static Result<std::unique_ptr<System>> Create(SystemConfig config);

  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs the full experiment (idempotent: one call per System).
  RunMetrics Run();

  /// Starts the engines' background processes (appliers, tickers) without
  /// running a workload — needed before driving engines directly via
  /// `engine(s).ExecutePrimary` in scripted scenarios. Idempotent; `Run`
  /// and `RunOneTransaction` call it themselves.
  void StartEngines() { EnsureStarted(); }

  /// Submits a single transaction at `site` outside the generated
  /// workload and runs the simulator until it finishes. For examples and
  /// tests that script explicit scenarios; do not mix with `Run`.
  /// Sim backend only.
  Status RunOneTransaction(SiteId site, const workload::TxnSpec& spec);

  /// Drains in-flight propagation (runs the simulator until quiescent),
  /// for use after scripted `RunOneTransaction` calls. Sim backend only.
  void DrainPropagation();

  /// Fault injection: occupies `machine`'s CPU for `duration` starting at
  /// runtime time `at` — a stall (swap storm, co-located job, GC pause).
  /// The protocols must ride it out: transactions and appliers on the
  /// machine freeze, timeouts fire, and correctness must hold. Call
  /// before `Run`. No-op when CPU modelling is disabled.
  void InjectCpuStall(int machine, SimTime at, Duration duration);

  int num_machines() const { return num_machines_; }
  int machine_of(SiteId site) const {
    return static_cast<int>(site) / config_.workload.sites_per_machine;
  }
  /// The executor lane that owns `site`'s confined state (engine maps,
  /// commit order, WAL recovery). With `workers_per_site == 1` this is
  /// exactly `machine_of(site)`; with more lanes, co-located sites spread
  /// their homes round-robin across their machine's lanes.
  int home_exec(SiteId site) const {
    return runtime_->ExecutorOf(
        machine_of(site),
        (static_cast<int>(site) % config_.workload.sites_per_machine) %
            runtime_->workers_per_machine());
  }

  // --- Introspection (primarily for tests and examples) ----------------
  runtime::Runtime& runtime() { return *runtime_; }
  /// The underlying simulator — sim backend only (CHECK-fails under
  /// `kThreads`; scripted scenarios that drive the event loop directly
  /// are inherently simulator-bound).
  sim::Simulator& simulator();
  storage::Database& database(SiteId site) { return *databases_[site]; }
  ReplicationEngine& engine(SiteId site) { return *engines_[site]; }
  const Routing& routing() const { return *routing_; }
  /// The full history, kept only on traced runs (lazybench's traced rep
  /// replays it). Every verdict comes from `oracle()`, which needs none.
  const HistoryRecorder& history() const { return history_; }
  /// The streaming oracle; null unless `check_serializability` is set.
  StreamingOracle* oracle() { return oracle_.get(); }
  /// True when `history()` records the run: checked and traced.
  bool KeepsHistory() const {
    return config_.check_serializability && config_.enable_trace;
  }
  /// Present when `SystemConfig::enable_trace` was set.
  const TraceLog* trace() const { return trace_.get(); }
  MetricsCollector& metrics() { return metrics_; }
  /// The labelled metrics registry (docs/OBSERVABILITY.md). Live counters
  /// update lock-free during the run; quiescent values (engine peaks,
  /// per-site txn totals) are exported by `Run` after the executors have
  /// been joined. Snapshot/render with `obs::PrometheusText`.
  const obs::MetricsRegistry& obs_registry() const { return obs_; }
  ProtocolNetwork& network() { return *network_; }
  /// Present when `SystemConfig::faults` is an enabled plan.
  const fault::FaultInjector* injector() const { return injector_.get(); }
  const fault::ReliableTransport* transport() const {
    return transport_.get();
  }
  /// Present when `SystemConfig::schedule` is an enabled perturbation.
  const sim::SchedulePolicy* schedule_policy() const {
    return schedule_policy_.get();
  }
  const SystemConfig& config() const { return config_; }

  /// The streaming oracle's serializability verdict so far. CHECK-fails
  /// on a run built with `check_serializability` off, which has none.
  SerializabilityVerdict CheckHistory() const {
    LAZYREP_CHECK(oracle_ != nullptr)
        << "CheckHistory: the run was built with check_serializability off";
    return oracle_->Serializability();
  }

  /// True when every replica equals its primary copy. `require_applied`
  /// protocols only (not PSL, which never propagates).
  bool ReplicasConverged() const;

 private:
  explicit System(SystemConfig config);

  static std::unique_ptr<runtime::Runtime> MakeRuntime(
      const SystemConfig& config);

  Status Build();
  void EnsureStarted();
  /// No pending propagation, crash recovery, downed site, transport
  /// work or engine work. Under the thread backend each engine is asked
  /// on its home lane (engine state is lane-confined), so callers must
  /// not run on an executor.
  bool AllQuiescent();
  /// Crash/recovery lifecycle of one `CrashEvent`, run on the crashed
  /// site's machine: mark the site down, resolve its volatile
  /// transactions, wait out the outage, rebuild the store from the WAL,
  /// and bring the site back up (docs/FAULTS.md).
  runtime::Co<void> CrashRecover(fault::CrashEvent crash);
  /// One workload thread of §5.2, driven from executor lane `exec` (the
  /// site's home lane, or — mobile protocols under `workers_per_site > 1`
  /// — any lane of the site's machine; each attempt hops back to `exec`
  /// because `ExecutePrimary` finishes on the home lane).
  runtime::Co<void> Worker(SiteId site, int exec, Rng rng);
  runtime::Co<void> QuiesceAndShutdown();
  void RunSim();
  void RunThreads();
  /// Thread backend: runs `fn(site)` for every site on that site's home
  /// lane and blocks until all sites finished.
  void OnEachSiteBlocking(const std::function<void(SiteId)>& fn);
  RunMetrics CollectMetrics() const;
  /// Exports machine-confined state (engine peaks, per-site txn counters)
  /// into `obs_`. Called once at the end of `Run`, after the thread
  /// backend has joined its executors — single-threaded by construction.
  void ExportQuiescentObs();

  SystemConfig config_;
  int num_machines_ = 1;
  std::unique_ptr<runtime::Runtime> runtime_;
  Rng rng_;
  std::shared_ptr<const Routing> routing_;
  std::unique_ptr<workload::WorkloadSpec> generator_;
  MetricsCollector metrics_;
  /// Labelled counters/gauges/histograms, written lock-free from every
  /// machine during the run (src/obs/). Owned here so its lifetime covers
  /// everything that holds metric handles into it.
  obs::MetricsRegistry obs_;
  HistoryRecorder history_;
  std::unique_ptr<StreamingOracle> oracle_;
  std::unique_ptr<TraceLog> trace_;
  /// Fans OnCommit/OnAbort out to the oracle, the recorder and the trace.
  class ObserverMux;
  std::unique_ptr<ObserverMux> observer_mux_;
  std::vector<std::unique_ptr<runtime::Resource>> machine_cpus_;
  std::vector<runtime::Resource*> site_cpu_;  // site -> machine CPU (or null)
  std::unique_ptr<ProtocolNetwork> network_;
  /// Fault machinery — only built when `config_.faults` is an enabled
  /// plan; otherwise engines talk to the network directly and no fault
  /// code runs (schedules stay byte-identical to a fault-free build).
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::ReliableTransport> transport_;
  /// Schedule perturbation — only built when `config_.schedule` is an
  /// enabled config (sim runtime only); otherwise no policy exists and
  /// schedules stay byte-identical to a policy-free build.
  std::unique_ptr<sim::SchedulePolicy> schedule_policy_;
  std::atomic<int> crashes_outstanding_{0};
  std::vector<std::unique_ptr<storage::Database>> databases_;
  std::vector<std::unique_ptr<ReplicationEngine>> engines_;
  /// Per-site transaction id allocator; atomic because a site's workload
  /// threads run on different lanes under `workers_per_site > 1`.
  std::unique_ptr<std::atomic<int64_t>[]> next_txn_seq_;
  runtime::WaitGroup workers_done_;
  Duration workload_elapsed_ = 0;
  Duration drain_elapsed_ = 0;
  /// Set once the post-workload drain has quiesced (sim runtime).
  bool drained_ = false;
  bool timed_out_ = false;
  bool ran_ = false;
  bool started_ = false;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_SYSTEM_H_
