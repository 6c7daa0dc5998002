#include "core/system.h"

#include "core/wire.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <thread>

#include "common/logging.h"
#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"
#include "workload/suite.h"

namespace lazyrep::core {

namespace {

/// Quiescence-poll period after the workload finishes.
constexpr Duration kQuiescePoll = Millis(10);

/// Machines are fixed by the workload shape: `sites_per_machine`
/// co-located sites share one machine (one CPU, one executor thread).
/// Defensive against not-yet-validated configs — `Build` rejects them.
int ComputeNumMachines(const workload::Params& params) {
  if (params.num_sites <= 0 || params.sites_per_machine <= 0) return 1;
  return (params.num_sites + params.sites_per_machine - 1) /
         params.sites_per_machine;
}

}  // namespace

/// Forwards commit/abort notifications to the streaming oracle (when
/// checking), the history recorder (when it is kept) and the trace log
/// (when tracing).
class System::ObserverMux : public storage::HistoryObserver {
 public:
  ObserverMux(StreamingOracle* oracle, HistoryRecorder* recorder,
              TraceLog* trace, runtime::Runtime* rt)
      : oracle_(oracle), recorder_(recorder), trace_(trace), rt_(rt) {}

  void OnCommit(SiteId site, const storage::Transaction& txn,
                int64_t commit_seq) override {
    if (oracle_ != nullptr) oracle_->OnCommit(site, txn, commit_seq);
    if (recorder_ != nullptr) recorder_->OnCommit(site, txn, commit_seq);
    if (trace_ != nullptr) {
      TraceEvent event;
      event.time = rt_->Now();
      event.kind = TraceEvent::Kind::kTxnCommit;
      event.site = site;
      event.txn = txn.id();
      trace_->Record(std::move(event));
    }
  }

  void OnSnapshotBegin(SiteId site, const storage::Transaction& txn,
                       int64_t stamp) override {
    if (oracle_ != nullptr) oracle_->OnSnapshotBegin(site, txn, stamp);
  }

  void OnSnapshotRead(SiteId site, const storage::Transaction& txn,
                      int64_t stamp, int64_t session_floor) override {
    if (oracle_ != nullptr) {
      oracle_->OnSnapshotRead(site, txn, stamp, session_floor);
    }
    if (recorder_ != nullptr) {
      recorder_->OnSnapshotRead(site, txn, stamp, session_floor);
    }
  }

  void OnAbort(SiteId site, const storage::Transaction& txn) override {
    if (oracle_ != nullptr) oracle_->OnAbort(site, txn);
    if (recorder_ != nullptr) recorder_->OnAbort(site, txn);
    if (trace_ != nullptr) {
      TraceEvent event;
      event.time = rt_->Now();
      event.kind = TraceEvent::Kind::kTxnAbort;
      event.site = site;
      event.txn = txn.id();
      event.detail = txn.abort_reason().ToString();
      trace_->Record(std::move(event));
    }
  }

 private:
  StreamingOracle* oracle_;
  HistoryRecorder* recorder_;
  TraceLog* trace_;
  runtime::Runtime* rt_;
};

System::System(SystemConfig config)
    : config_(std::move(config)),
      num_machines_(ComputeNumMachines(config_.workload)),
      runtime_(MakeRuntime(config_)),
      rng_(config_.seed),
      metrics_(config_.workload.num_sites),
      workers_done_(runtime_.get()) {}

System::~System() {
  // Destroy all parked/in-flight coroutine frames before the members they
  // reference (mailboxes, databases, engines) are torn down.
  runtime_->Shutdown();
}

std::unique_ptr<runtime::Runtime> System::MakeRuntime(
    const SystemConfig& config) {
  switch (config.runtime) {
    case runtime::RuntimeKind::kThreads:
      return std::make_unique<runtime::ThreadRuntime>(
          ComputeNumMachines(config.workload),
          std::max(1, config.workers_per_site));
    case runtime::RuntimeKind::kSim:
      break;
  }
  return std::make_unique<runtime::SimRuntime>();
}

sim::Simulator& System::simulator() {
  LAZYREP_CHECK(runtime_->kind() == runtime::RuntimeKind::kSim)
      << "simulator() is only available under the sim backend";
  return *static_cast<runtime::SimRuntime*>(runtime_.get())->simulator();
}

Result<std::unique_ptr<System>> System::Create(SystemConfig config) {
  auto system = std::unique_ptr<System>(new System(std::move(config)));
  LAZYREP_RETURN_IF_ERROR(system->Build());
  return system;
}

Status Validate(const SystemConfig& config) {
  const workload::Params& params = config.workload;
  if (params.num_sites <= 0 || params.sites_per_machine <= 0) {
    return Status::InvalidArgument("bad site/machine counts");
  }
  if (config.workers_per_site < 1) {
    return Status::InvalidArgument("workers_per_site must be >= 1");
  }
  if (config.engine.lock_stripes < 1) {
    return Status::InvalidArgument("lock_stripes must be >= 1");
  }
  if (config.consistency != storage::ConsistencyLevel::kSerializable) {
    if (config.protocol == Protocol::kPsl) {
      return Status::InvalidArgument(
          "snapshot/ryw consistency requires value propagation; PSL never "
          "ships update values to secondaries, so a secondary snapshot "
          "would serve frozen initial data forever");
    }
    if (config.mvcc_gc_interval < 1) {
      return Status::InvalidArgument("mvcc_gc_interval must be >= 1");
    }
  }
  if (config.workers_per_site > 1) {
    if (config.runtime != runtime::RuntimeKind::kThreads) {
      return Status::InvalidArgument(
          "workers_per_site > 1 requires the thread runtime (the sim "
          "models one logical executor; faking parallel lanes there would "
          "invalidate every golden schedule)");
    }
    if (config.engine.deadlock_policy ==
        storage::DeadlockPolicy::kLocalDetection) {
      return Status::InvalidArgument(
          "local deadlock detection requires workers_per_site == 1 (the "
          "detector snapshots a waits-for graph that only a single lane "
          "may mutate); use wait-die or timeouts for multi-worker sites");
    }
  }
  if (config.engine.deadlock_policy == storage::DeadlockPolicy::kWaitDie &&
      config.schedule.has_value() && config.schedule->enabled() &&
      config.schedule->shuffle_grants) {
    return Status::InvalidArgument(
        "wait-die does not compose with shuffle_grants: grant-order "
        "perturbation explores waiter orders, but wait-die kills the "
        "waiters the shuffle would reorder");
  }
  if (config.batching.window < 0) {
    return Status::InvalidArgument("batching window must be >= 0");
  }
  if (config.batching.wal_group_commit && !config.enable_wal) {
    return Status::InvalidArgument(
        "wal_group_commit requires enable_wal (there is no log whose "
        "syncs it would batch)");
  }
  if (config.faults.has_value() && !config.faults->crashes.empty()) {
    // Crash faults need a redo log to recover from and a protocol whose
    // propagation state is modelled as durable (docs/FAULTS.md).
    if (!config.enable_wal) {
      return Status::InvalidArgument(
          "crash faults require enable_wal (recovery replays the WAL)");
    }
    if (config.protocol != Protocol::kDagWt &&
        config.protocol != Protocol::kDagT &&
        config.protocol != Protocol::kBackEdge) {
      return Status::InvalidArgument(
          "crash faults are only supported for the lazy tree protocols "
          "(DAG(WT)/DAG(T)/BackEdge)");
    }
    for (const fault::CrashEvent& crash : config.faults->crashes) {
      if (crash.site < 0 || crash.site >= params.num_sites) {
        return Status::InvalidArgument("crash site out of range");
      }
      if (crash.at <= 0 || crash.down_for <= 0) {
        return Status::InvalidArgument(
            "crash time and down_for must be positive");
      }
    }
  }

  // Schedule perturbation (lazychk) is only meaningful — and only
  // replayable — on the deterministic sim backend.
  if (config.schedule.has_value() && config.schedule->enabled()) {
    if (config.runtime != runtime::RuntimeKind::kSim) {
      return Status::InvalidArgument(
          "schedule perturbation requires the sim runtime (a perturbed "
          "schedule must be replayable from its seed)");
    }
    if (config.schedule->delivery_jitter_max < 0) {
      return Status::InvalidArgument("delivery_jitter_max must be >= 0");
    }
  }
  return Status::OK();
}

Status System::Build() {
  LAZYREP_RETURN_IF_ERROR(Validate(config_));
  workload::Params& params = config_.workload;

  // Schedule perturbation (lazychk): a seeded policy perturbs event
  // tie-breaks, delivery delays and lock-grant order.
  if (config_.schedule.has_value() && config_.schedule->enabled()) {
    schedule_policy_ =
        std::make_unique<sim::SchedulePolicy>(*config_.schedule);
    simulator().SetSchedulePolicy(schedule_policy_.get());
  }

  // Placement: explicit override or generated by the workload
  // (docs/WORKLOADS.md; kTable1 is the §5.2 generator, unchanged).
  graph::Placement placement;
  if (config_.placement.has_value()) {
    placement = *config_.placement;
  } else {
    LAZYREP_ASSIGN_OR_RETURN(
        placement, workload::MakeWorkloadPlacement(params, &rng_));
  }
  if (placement.num_sites != params.num_sites) {
    return Status::InvalidArgument(
        "placement num_sites does not match workload num_sites");
  }

  LAZYREP_ASSIGN_OR_RETURN(
      routing_, Routing::Build(placement, config_.protocol, config_.engine));
  LAZYREP_ASSIGN_OR_RETURN(generator_,
                           workload::MakeWorkload(params, placement));

  // Machines: `sites_per_machine` co-located sites share one CPU with
  // `workers_per_site` cores (one per executor lane; 1 under the sim).
  site_cpu_.assign(params.num_sites, nullptr);
  if (config_.costs.model_cpu) {
    for (int m = 0; m < num_machines_; ++m) {
      machine_cpus_.push_back(std::make_unique<runtime::Resource>(
          runtime_.get(), config_.workers_per_site));
    }
    for (SiteId s = 0; s < params.num_sites; ++s) {
      site_cpu_[s] = machine_cpus_[machine_of(s)].get();
    }
  }

  // Network: latency + shared-bus bandwidth over real wire sizes;
  // co-located sites talk over loopback.
  ProtocolNetwork::Config net_config;
  net_config.latency = params.network_latency;
  net_config.jitter = config_.costs.net_jitter;
  net_config.send_cpu = config_.costs.msg_send_cpu;
  net_config.recv_cpu = config_.costs.msg_recv_cpu;
  net_config.bandwidth_bytes_per_sec =
      config_.costs.net_bandwidth_bytes_per_sec;
  net_config.loopback_latency = config_.costs.loopback_latency;
  network_ = std::make_unique<ProtocolNetwork>(
      runtime_.get(), params.num_sites, net_config, site_cpu_, rng_.Split());
  network_->SetSizer(
      [](const ProtocolMessage& message) { return Wire::EncodedSize(message); });
  network_->SetMetrics(&obs_, kNumMessageMetricKinds, MessageMetricKind,
                       [](int kind) {
                         return std::string(MessageMetricKindName(kind));
                       });
  {
    std::vector<int> machine_of_site(params.num_sites);
    for (SiteId s = 0; s < params.num_sites; ++s) {
      machine_of_site[s] = machine_of(s);
    }
    network_->SetMachineMap(std::move(machine_of_site));
    std::vector<int> exec_of_site(params.num_sites);
    for (SiteId s = 0; s < params.num_sites; ++s) {
      exec_of_site[s] = home_exec(s);
    }
    network_->SetExecutorMap(std::move(exec_of_site));
  }
  if (schedule_policy_ != nullptr &&
      schedule_policy_->config().delivery_jitter_max > 0) {
    network_->SetDelayHook(
        [this] { return schedule_policy_->NextDeliveryJitter(); });
  }

  // Fault injection: an enabled plan interposes the reliable-delivery
  // layer between the engines and the (now possibly lossy) network.
  // Transport batching (frame coalescing) lives in that same layer, so
  // enabling it also interposes the transport — with a null injector
  // when no faults are configured. Without either,
  // none of this exists and engine traffic takes the exact same path it
  // always did.
  const bool want_faults = config_.faults.has_value() &&
                           config_.faults->enabled();
  if (want_faults) {
    injector_ = std::make_unique<fault::FaultInjector>(
        runtime_.get(), *config_.faults, params.num_sites, rng_.Split());
  }
  if (want_faults || config_.batching.enabled()) {
    transport_ = std::make_unique<fault::ReliableTransport>(
        runtime_.get(), network_.get(), injector_.get(), params.num_sites,
        config_.batching);
    transport_->SetMetrics(&obs_);
  }
  if (want_faults && config_.faults->network_faults()) {
    network_->SetFaultHook([this](SiteId src, SiteId dst) {
      return injector_->Roll(src, dst);
    });
  }

  // Tracing.
  if (config_.enable_trace) {
    trace_ = std::make_unique<TraceLog>();
    network_->AddObserver(
        [this](const ProtocolNetwork::Envelope& env, bool delivered) {
          TraceEvent event;
          event.time = runtime_->Now();
          event.kind = delivered ? TraceEvent::Kind::kMsgDeliver
                                 : TraceEvent::Kind::kMsgPost;
          event.site = delivered ? env.dst : env.src;
          event.peer = delivered ? env.src : env.dst;
          event.txn = MessageOrigin(env.payload);
          event.detail = std::string(MessageKindName(env.payload));
          trace_->Record(std::move(event));
        });
  }

  // Sites: database + engine; initial value of every copy is 0.
  if (config_.check_serializability) {
    oracle_ = std::make_unique<StreamingOracle>(
        [rt = runtime_.get()] { return rt->Now(); },
        /*pumped=*/runtime_->concurrent());
  }
  observer_mux_ = std::make_unique<ObserverMux>(
      oracle_.get(), KeepsHistory() ? &history_ : nullptr, trace_.get(),
      runtime_.get());
  storage::HistoryObserver* observer =
      (config_.check_serializability || config_.enable_trace)
          ? observer_mux_.get()
          : nullptr;
  const std::vector<std::vector<ItemId>> items_by_site =
      placement.ItemsBySite();
  for (SiteId s = 0; s < params.num_sites; ++s) {
    storage::Database::Options options;
    options.site = s;
    options.costs = config_.costs.op;
    options.lock_config.wait_timeout = params.deadlock_timeout;
    options.lock_config.policy = config_.engine.deadlock_policy;
    options.lock_config.grant = config_.engine.grant_policy;
    options.lock_config.stripes = config_.engine.lock_stripes;
    if (schedule_policy_ != nullptr &&
        schedule_policy_->config().shuffle_grants) {
      options.lock_config.schedule_pick = [this](size_t n) {
        return schedule_policy_->GrantPick(n);
      };
    }
    options.enable_wal = config_.enable_wal;
    options.enable_mvcc =
        config_.consistency != storage::ConsistencyLevel::kSerializable;
    options.num_sites = params.num_sites;
    options.mvcc_gc_interval = config_.mvcc_gc_interval;
    databases_.push_back(std::make_unique<storage::Database>(
        runtime_.get(), options, site_cpu_[s], observer));
    for (ItemId item : items_by_site[s]) {
      databases_.back()->store().AddItem(item, 0);
    }
    databases_.back()->locks().SetMetrics(&obs_, s);
    if (config_.enable_trace) {
      databases_.back()->locks().SetEventHooks(
          [this, s](const storage::Transaction& txn, ItemId item) {
            TraceEvent event;
            event.time = runtime_->Now();
            event.kind = TraceEvent::Kind::kLockWait;
            event.site = s;
            event.txn = txn.id();
            event.item = item;
            trace_->Record(std::move(event));
          },
          [this, s](const storage::Transaction& txn, ItemId item) {
            TraceEvent event;
            event.time = runtime_->Now();
            event.kind = TraceEvent::Kind::kLockTimeout;
            event.site = s;
            event.txn = txn.id();
            event.item = item;
            trace_->Record(std::move(event));
          });
    }
  }
  // The transport owns the raw network handlers when it is in the
  // stack; engines then sit behind its exactly-once FIFO delivery.
  ProtocolTransport* egress =
      transport_ != nullptr ? static_cast<ProtocolTransport*>(transport_.get())
                            : network_.get();
  for (SiteId s = 0; s < params.num_sites; ++s) {
    ReplicationEngine::Context ctx;
    ctx.site = s;
    ctx.rt = runtime_.get();
    ctx.machine = home_exec(s);
    ctx.db = databases_[s].get();
    ctx.net = egress;
    ctx.routing = routing_;
    ctx.metrics = &metrics_;
    ctx.oracle = oracle_.get();
    ctx.obs = &obs_;
    ctx.config = &config_;
    ctx.faults = injector_.get();
    engines_.push_back(MakeEngine(std::move(ctx)));
    egress->SetHandler(s, [this, s](ProtocolNetwork::Envelope env) {
      engines_[s]->OnMessage(std::move(env));
    });
  }
  next_txn_seq_ =
      std::make_unique<std::atomic<int64_t>[]>(params.num_sites);
  LAZYREP_LOG(kInfo) << "system built: " << ProtocolName(config_.protocol)
                     << " | " << params.ToString() << " | "
                     << routing_->copy_graph().num_edges()
                     << " copy edges, " << routing_->backedges().size()
                     << " backedges | runtime="
                     << runtime::RuntimeKindName(runtime_->kind()) << " ("
                     << num_machines_ << " machines x "
                     << runtime_->workers_per_machine() << " workers)";
  return Status::OK();
}

runtime::Co<void> System::Worker(SiteId site, int exec, Rng rng) {
  const workload::Params& params = config_.workload;
  // Per-session consistency: each worker models one client session. Under
  // kRyw the session's floor is pinned to its own last write commit.
  storage::Session session{config_.consistency};
  for (int i = 0; i < params.txns_per_thread; ++i) {
    workload::TxnSpec spec = generator_->Next(site, &rng);
    // Read-only transactions take the lock-free MVCC snapshot path under
    // the relaxed levels; everything else stays on strict 2PL.
    const bool snapshot_read =
        config_.consistency != storage::ConsistencyLevel::kSerializable &&
        spec.read_only && !spec.ops.empty();
    // A crashed site accepts no new transactions until it recovers.
    if (injector_ != nullptr) co_await injector_->AwaitUp(site);
    SimTime start = runtime_->Now();
    // Warmup exclusion: run the transaction, skip its metrics.
    bool measured = start >= config_.warmup;
    double backoff_ms = 2.0;
    for (;;) {
      // `ExecutePrimary` finishes on the site's home lane (mobile engines
      // hop there before committing); hop back so each attempt — and the
      // lock waits and CPU charges it performs — runs on this worker's
      // own lane. No-op under `kSim` and when already on `exec`.
      co_await runtime_->RunOn(exec);
      if (injector_ != nullptr) co_await injector_->AwaitUp(site);
      GlobalTxnId id{site,
                     next_txn_seq_[site].fetch_add(
                         1, std::memory_order_relaxed)};
      // Two statements, not a conditional expression: GCC's coroutine
      // lowering of `co_await` inside `?:` destroys the awaited frame
      // (and the Status it returns) before the result is copied out.
      Status st;
      if (snapshot_read) {
        st = co_await engines_[site]->ExecuteSnapshotRead(id, spec,
                                                          &session);
      } else {
        st = co_await engines_[site]->ExecutePrimary(id, spec);
      }
      if (st.ok()) {
        if (measured) {
          if (snapshot_read) {
            metrics_.OnReadCommit(site, runtime_->Now() - start);
          } else {
            metrics_.OnPrimaryCommit(site, runtime_->Now() - start);
            // Track read-only commits on the 2PL path separately so the
            // read-serving benches can compare per-arm read throughput.
            if (spec.read_only && !spec.ops.empty()) {
              metrics_.OnLockedReadCommit(site, runtime_->Now() - start);
            }
          }
        }
        if (!snapshot_read &&
            session.level == storage::ConsistencyLevel::kRyw) {
          // Read-your-writes: later reads in this session must observe
          // at least this commit. The watermark was advanced by our own
          // commit before Commit returned, so it covers the new stamp.
          session.floor_site = site;
          session.floor_stamp = databases_[site]->watermark();
        }
        break;
      }
      LAZYREP_CHECK(st.IsAbort()) << st.ToString();
      if (measured) metrics_.OnPrimaryAbort(site);
      if (config_.retry == RetryPolicy::kNone) break;
      // Randomized exponential backoff: keeps repeated aborts of the same
      // conflicting transactions from livelocking in lock-step, and lets
      // a starving backedge transaction eventually find a quiet window.
      co_await runtime_->Delay(static_cast<Duration>(
          rng.Exponential(backoff_ms) * static_cast<double>(kMillisecond)));
      backoff_ms = std::min(backoff_ms * 2.0, 250.0);
    }
    // Request boundary: under the threads runtime a session whose
    // requests never suspend would otherwise starve every applier,
    // delivery and timer on its lane until it finished (docs/RUNTIME.md).
    co_await runtime_->Yield();
  }
  workers_done_.Done();
}

bool System::AllQuiescent() {
  if (metrics_.pending_propagations() > 0) return false;
  if (crashes_outstanding_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  if (injector_ != nullptr && !injector_->AllUp()) return false;
  if (transport_ != nullptr && !transport_->Quiescent()) return false;
  if (!runtime_->concurrent()) {
    for (const auto& engine : engines_) {
      if (!engine->Quiescent()) return false;
    }
    return true;
  }
  std::atomic<bool> all{true};
  OnEachSiteBlocking([this, &all](SiteId s) {
    if (!engines_[s]->Quiescent()) all.store(false, std::memory_order_relaxed);
  });
  return all.load();
}

runtime::Co<void> System::QuiesceAndShutdown() {
  co_await workers_done_.Wait();
  workload_elapsed_ = runtime_->Now();
  while (!AllQuiescent()) {
    co_await runtime_->Delay(kQuiescePoll);
  }
  drain_elapsed_ = runtime_->Now();
  drained_ = true;
  for (auto& engine : engines_) engine->BeginShutdown();
  if (transport_ != nullptr) transport_->BeginShutdown();
}

RunMetrics System::Run() {
  LAZYREP_CHECK(!ran_) << "System::Run is one-shot";
  ran_ = true;
  const workload::Params& params = config_.workload;
  runtime_->Start();  // No-op under kSim; launches executors under kThreads.
  EnsureStarted();
  Rng worker_seeds = rng_.Split();
  // Which engines tolerate their transactions running off the home lane
  // (they hop home before commit/posting). PSL and Eager coordinate 2PC
  // votes and proxy maps mid-transaction, so they stay home-pinned.
  const bool mobile = config_.protocol == Protocol::kDagWt ||
                      config_.protocol == Protocol::kDagT ||
                      config_.protocol == Protocol::kBackEdge ||
                      config_.protocol == Protocol::kNaiveLazy;
  const int lanes = runtime_->workers_per_machine();
  const int spm = params.sites_per_machine;
  for (SiteId s = 0; s < params.num_sites; ++s) {
    for (int t = 0; t < params.threads_per_site; ++t) {
      // Mobile protocols spread a site's workload threads round-robin
      // over its machine's lanes (starting at the home lane so the
      // single-thread case degenerates to the pinned one); pinned
      // protocols keep every thread on the home lane.
      int exec = mobile ? runtime_->ExecutorOf(
                              machine_of(s), ((s % spm) + t) % lanes)
                        : home_exec(s);
      workers_done_.Add();
      runtime_->SpawnOn(exec, Worker(s, exec, worker_seeds.Split()));
    }
  }
  if (runtime_->concurrent()) {
    RunThreads();
  } else {
    RunSim();
  }
  ExportQuiescentObs();
  return CollectMetrics();
}

void System::ExportQuiescentObs() {
  // Runs single-threaded over frozen state: the sim loop has drained, or
  // `RunThreads` has already joined the executors, so the machine-confined
  // engine members are visible here via the join happens-before edge.
  const workload::Params& params = config_.workload;
  for (SiteId s = 0; s < params.num_sites; ++s) {
    obs::Labels labels{{"site", std::to_string(s)}};
    obs_.GetCounter("lazyrep_txn_committed_total", labels,
                    "Primary transactions committed at this site")
        ->Increment(static_cast<uint64_t>(metrics_.committed_at(s)));
    obs_.GetCounter("lazyrep_txn_aborted_total", labels,
                    "Primary transactions aborted at this site")
        ->Increment(static_cast<uint64_t>(metrics_.aborted_at(s)));
    if (config_.consistency != storage::ConsistencyLevel::kSerializable) {
      const storage::Database& db = *databases_[s];
      obs_.GetGauge("lazyrep_mvcc_watermark", labels,
                    "Stable snapshot watermark (latest local commit stamp)")
          ->Set(static_cast<double>(db.watermark()));
      obs_.GetGauge("lazyrep_mvcc_watermark_age_ms", labels,
                    "Age of the stable watermark at shutdown (ms)")
          ->Set(db.watermark_publish_time() > 0
                    ? ToMillis(runtime_->Now() - db.watermark_publish_time())
                    : 0.0);
      obs_.GetCounter("lazyrep_mvcc_snapshot_reads_total", labels,
                      "Read-only transactions served lock-free from a "
                      "snapshot")
          ->Increment(static_cast<uint64_t>(db.snapshot_reads()));
      obs_.GetCounter("lazyrep_mvcc_gc_reclaimed_total", labels,
                      "Version-chain nodes reclaimed by MVCC GC")
          ->Increment(static_cast<uint64_t>(db.gc_reclaimed()));
      obs_.GetCounter("lazyrep_mvcc_gc_passes_total", labels,
                      "MVCC GC passes over the store")
          ->Increment(static_cast<uint64_t>(db.gc_passes()));
      obs::Histogram* chains = obs_.GetHistogram(
          "lazyrep_mvcc_chain_length", labels,
          "Version-chain length per item at shutdown");
      for (const auto& [item, len] : db.store().ChainLengths()) {
        chains->Observe(static_cast<double>(len));
      }
    }
    engines_[s]->ExportObs();
  }
}

void System::RunSim() {
  sim::Simulator& sim = simulator();
  runtime_->SpawnOn(0, QuiesceAndShutdown());
  if (config_.max_sim_time > 0) {
    sim.RunUntil(config_.max_sim_time);
    timed_out_ = !drained_;
  } else {
    sim.Run();
  }
}

void System::RunThreads() {
  // Mirrors `QuiesceAndShutdown`, but driven from the caller's OS thread:
  // the executors run the workload while this thread blocks on the
  // fan-in, then polls quiescence on wall-clock time.
  const Duration cap = config_.max_sim_time;
  const auto poll = std::chrono::nanoseconds(kQuiescePoll);
  auto past_deadline = [&] { return cap > 0 && runtime_->Now() >= cap; };
  // While it waits, this thread replays the commits for the streaming
  // oracle, off the executors' paths.
  auto pump = [this] {
    if (oracle_ != nullptr) oracle_->Pump();
  };
  bool workers_done = false;
  while (!(workers_done = workers_done_.WaitBlocking(kMillisecond))) {
    pump();
    if (past_deadline()) break;
  }
  if (!workers_done) {
    timed_out_ = true;
  } else {
    workload_elapsed_ = runtime_->Now();
    while (!AllQuiescent() && !timed_out_) {
      if (past_deadline()) {
        timed_out_ = true;
        break;
      }
      pump();
      std::this_thread::sleep_for(poll);
    }
    if (!timed_out_) {
      drain_elapsed_ = runtime_->Now();
      // Nothing is left to flush: AllQuiescent counts every buffered
      // transport post as unacked, and the one periodic sender (DAG(T)'s
      // dummies) checks for shutdown before it posts.
      OnEachSiteBlocking([this](SiteId s) { engines_[s]->BeginShutdown(); });
      if (transport_ != nullptr) transport_->BeginShutdown();
    }
  }
  // Join the executors before metrics/verdicts: everything below runs
  // single-threaded over frozen state.
  runtime_->Shutdown();
}

void System::OnEachSiteBlocking(const std::function<void(SiteId)>& fn) {
  // Engine state is confined to each site's home lane, so `fn` must run
  // there — one callback per site, fanned in with a latch.
  const int num_sites = config_.workload.num_sites;
  std::latch done{num_sites};
  for (SiteId s = 0; s < num_sites; ++s) {
    runtime_->ScheduleCallbackOn(home_exec(s), 0, [s, &fn, &done] {
      fn(s);
      done.count_down();
    });
  }
  done.wait();
}

RunMetrics System::CollectMetrics() const {
  const workload::Params& params = config_.workload;
  RunMetrics out;
  out.committed = metrics_.total_committed();
  out.aborted = metrics_.total_aborted();
  out.workload_elapsed = workload_elapsed_;
  out.drain_elapsed = drain_elapsed_;
  out.timed_out = timed_out_;
  double elapsed_s =
      ToSeconds(std::max<Duration>(workload_elapsed_ - config_.warmup, 0));
  out.per_site.resize(params.num_sites);
  if (elapsed_s > 0) {
    double sum = 0;
    for (SiteId s = 0; s < params.num_sites; ++s) {
      SiteMetrics& site = out.per_site[s];
      site.site = s;
      site.committed = metrics_.committed_at(s);
      site.aborted = metrics_.aborted_at(s);
      site.throughput = static_cast<double>(site.committed) / elapsed_s;
      sum += site.throughput;
    }
    out.avg_site_throughput = sum / params.num_sites;
  }
  int64_t attempts = out.committed + out.aborted;
  out.abort_rate_pct =
      attempts > 0 ? 100.0 * static_cast<double>(out.aborted) /
                         static_cast<double>(attempts)
                   : 0.0;
  out.response_ms = metrics_.response_ms();
  {
    // One copy per tracker: the first Percentile() sorts it, the rest
    // read the sorted samples.
    const PercentileTracker response = metrics_.response_percentiles();
    out.response_p50_ms = response.Percentile(50);
    out.response_p95_ms = response.Percentile(95);
    out.response_p99_ms = response.Percentile(99);
  }
  out.response_histogram = metrics_.response_histogram();
  out.propagation_delay_ms = metrics_.full_propagation_ms();
  out.per_site_apply_delay_ms = metrics_.per_site_apply_ms();
  {
    ProtocolNetwork::Stats net = network_->Snapshot();
    out.messages = net.total_messages;
    out.bytes = net.total_bytes;
  }
  for (const auto& db : databases_) {
    out.lock_timeouts += db->locks().stats().timeouts;
    out.lock_waits += db->locks().stats().waits;
    out.lock_die_aborts += db->locks().stats().die_aborts;
  }
  out.locked_read_committed = metrics_.total_locked_read_committed();
  if (elapsed_s > 0) {
    out.locked_read_throughput =
        static_cast<double>(out.locked_read_committed) / elapsed_s;
  }
  out.locked_read_response_ms = metrics_.locked_read_response_ms();
  out.locked_read_p99_ms = metrics_.locked_read_percentiles().Percentile(99);
  if (config_.consistency != storage::ConsistencyLevel::kSerializable) {
    out.read_committed = metrics_.total_read_committed();
    if (elapsed_s > 0) {
      out.read_throughput =
          static_cast<double>(out.read_committed) / elapsed_s;
    }
    out.read_response_ms = metrics_.read_response_ms();
    const PercentileTracker reads = metrics_.read_percentiles();
    out.read_p50_ms = reads.Percentile(50);
    out.read_p99_ms = reads.Percentile(99);
    out.staleness_ms = metrics_.staleness_ms();
    for (const auto& db : databases_) {
      out.gc_reclaimed += db->gc_reclaimed();
      out.gc_passes += db->gc_passes();
    }
  }
  if (config_.check_serializability) {
    out.checked = true;
    if (!timed_out_) oracle_->CheckDrained();
    const bool snapshot_level =
        config_.consistency != storage::ConsistencyLevel::kSerializable;
    const SerializabilityVerdict verdict = oracle_->Serializability();
    const ReadConsistencyVerdict reads = oracle_->ReadConsistency();
    const SnapshotConsistencyVerdict snaps = oracle_->SnapshotConsistency();
    out.serializable = verdict.serializable;
    out.verdict = verdict.ToString();
    out.reads_consistent = reads.consistent;
    out.reads_checked = reads.reads_checked;
    if (!reads.consistent) out.verdict += "; " + reads.violation;
    if (snapshot_level) {
      out.snapshots_consistent = snaps.consistent;
      out.snapshots_checked = snaps.snapshots_checked;
      out.snapshot_reads_checked = snaps.reads_checked;
      if (!snaps.consistent) out.verdict += "; " + snaps.violation;
    }
  }
  out.converged =
      config_.protocol == Protocol::kPsl ? true : ReplicasConverged();
  return out;
}

void System::EnsureStarted() {
  if (started_) return;
  started_ = true;
  for (auto& engine : engines_) engine->Start();
  if (injector_ != nullptr) {
    for (const fault::CrashEvent& crash : config_.faults->crashes) {
      crashes_outstanding_.fetch_add(1, std::memory_order_acq_rel);
      // Crash/recovery manipulates the site's engine state and WAL: run
      // it on the site's home lane.
      runtime_->ScheduleCallbackAtOn(
          home_exec(crash.site), crash.at,
          [this, crash] { runtime_->Spawn(CrashRecover(crash)); });
    }
  }
}

runtime::Co<void> System::CrashRecover(fault::CrashEvent crash) {
  const SiteId site = crash.site;
  storage::Database& db = *databases_[site];
  obs_.GetCounter("lazyrep_system_crashes_total",
                  {{"site", std::to_string(site)}},
                  "Injected site crashes")
      ->Increment();
  injector_->SetDown(site);
  engines_[site]->OnCrash();
  // The crash kills every active primary transaction at the site: its
  // client connection and volatile execution state are gone. Pinned
  // (prepared) transactions are the 2PC exception and ride through;
  // secondary subtransactions are redone at recovery and are never
  // aborted (the paper's victim rule extends to crashes).
  for (const storage::TxnPtr& txn : db.ActiveTransactions()) {
    if (txn->kind() != storage::TxnKind::kPrimary || txn->pinned()) {
      continue;
    }
    txn->RequestAbort(Status::ExternalAbort("site crashed"));
  }
  // Let the marked transactions finish rolling back (their coroutines
  // observe the mark at the next suspension point) before the store
  // image is rebuilt — a half-undone rollback must not be re-applied.
  while (db.HasUnpinnedActive()) {
    co_await runtime_->Delay(Millis(1));
  }
  SimTime up_at = crash.at + crash.down_for;
  if (runtime_->Now() < up_at) {
    co_await runtime_->Delay(up_at - runtime_->Now());
  }
  // Restart: the volatile store image is lost; rebuild it from the redo
  // WAL, then re-admit traffic. When no transaction survived the outage
  // the freshly recovered image doubles as a checkpoint, truncating the
  // log (satellite exercise of Wal::Checkpoint on the real path).
  db.RecoverStoreFromWal();
  if (db.ActiveTransactions().empty()) {
    db.mutable_wal()->Checkpoint(db.store());
  }
  engines_[site]->OnRestart();
  obs_.GetCounter("lazyrep_system_recoveries_total",
                  {{"site", std::to_string(site)}},
                  "Completed site recoveries (WAL replay done)")
      ->Increment();
  injector_->SetUp(site);
  if (transport_ != nullptr) transport_->FlushPending(site);
  crashes_outstanding_.fetch_sub(1, std::memory_order_acq_rel);
}

Status System::RunOneTransaction(SiteId site,
                                 const workload::TxnSpec& spec) {
  sim::Simulator& sim = simulator();  // Scripted runs are sim-only.
  EnsureStarted();
  Status result = Status::Internal("transaction did not run");
  bool done = false;
  GlobalTxnId id{site, next_txn_seq_[site].fetch_add(
                           1, std::memory_order_relaxed)};
  sim.Spawn([](System* system, sim::Simulator* s_sim, SiteId s,
               GlobalTxnId txn_id, workload::TxnSpec txn_spec, Status* out,
               bool* flag) -> runtime::Co<void> {
    *out = co_await system->engines_[s]->ExecutePrimary(txn_id, txn_spec);
    *flag = true;
    // Halt the loop; periodic protocol processes would otherwise keep
    // the event queue busy forever.
    s_sim->Stop();
  }(this, &sim, site, id, spec, &result, &done));
  while (!done) {
    uint64_t processed = sim.Run();
    LAZYREP_CHECK(processed > 0 || done)
        << "transaction cannot make progress";
  }
  return result;
}

void System::InjectCpuStall(int machine, SimTime at, Duration duration) {
  if (machine_cpus_.empty()) return;  // CPU modelling off.
  LAZYREP_CHECK(machine >= 0 &&
                machine < static_cast<int>(machine_cpus_.size()));
  LAZYREP_CHECK_GE(at, runtime_->Now());
  runtime::Resource* cpu = machine_cpus_[static_cast<size_t>(machine)].get();
  // A stall freezes the whole machine: occupy every lane's CPU unit.
  for (int lane = 0; lane < runtime_->workers_per_machine(); ++lane) {
    runtime_->ScheduleCallbackAtOn(runtime_->ExecutorOf(machine, lane), at,
                                   [this, cpu, duration] {
                                     runtime_->Spawn(cpu->Consume(duration));
                                   });
  }
}

void System::DrainPropagation() {
  sim::Simulator& sim = simulator();  // Scripted runs are sim-only.
  EnsureStarted();
  int guard = 0;
  while (!AllQuiescent()) {
    sim.RunUntil(sim.Now() + kQuiescePoll);
    LAZYREP_CHECK(++guard < 1000000) << "propagation never quiesced";
  }
  // Engines stay running (periodic processes included) so further
  // scripted transactions can follow; everything is torn down with the
  // System.
}

bool System::ReplicasConverged() const {
  const graph::Placement& placement = routing_->placement();
  for (ItemId item = 0; item < placement.num_items; ++item) {
    Result<Value> primary_value =
        databases_[placement.primary[item]]->store().Get(item);
    LAZYREP_CHECK(primary_value.ok());
    for (SiteId s : placement.replicas[item]) {
      Result<Value> replica_value = databases_[s]->store().Get(item);
      LAZYREP_CHECK(replica_value.ok());
      if (*replica_value != *primary_value) return false;
    }
  }
  return true;
}

}  // namespace lazyrep::core
