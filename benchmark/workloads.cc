#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "workload/suite.h"

namespace lazybench {

namespace core = lazyrep::core;

namespace {

constexpr uint64_t kPlacementSeed = 1;

/// The real-cost profile: threads runtime, no modelled CPU, no added wire
/// latency or bandwidth, so throughput is bounded by the implementation.
void RealCost(core::SystemConfig* config) {
  config->runtime = lazyrep::runtime::RuntimeKind::kThreads;
  config->costs.model_cpu = false;
  config->costs.net_bandwidth_bytes_per_sec = 0;
  config->costs.net_jitter = 0;
  config->costs.loopback_latency = 0;
  config->workload.network_latency = 0;
  // Wall-clock cap: a rep that cannot drain fails its verdict instead of
  // hanging the benchmark.
  config->max_sim_time = lazyrep::Seconds(60);
}

core::SystemConfig Table1DagWt() {
  core::SystemConfig config =
      lazyrep::harness::PaperConfig(core::Protocol::kDagWt);
  config.workload.backedge_prob = 0;
  RealCost(&config);
  return config;
}

core::SystemConfig YcsbBSnapshot() {
  core::SystemConfig config = Table1DagWt();
  config.workload.workload = lazyrep::workload::WorkloadKind::kYcsbB;
  config.workload.zipf_theta = 0.8;
  // One-op requests, as bench_reads runs YCSB: 95% of requests are then
  // read-only and take the snapshot path.
  config.workload.ops_per_txn = 1;
  config.consistency = lazyrep::storage::ConsistencyLevel::kSnapshot;
  return config;
}

core::SystemConfig DagTLossy() {
  core::SystemConfig config =
      lazyrep::harness::PaperConfig(core::Protocol::kDagT);
  config.workload.backedge_prob = 0;
  RealCost(&config);
  lazyrep::Result<lazyrep::fault::FaultPlan> plan =
      lazyrep::fault::FaultPlan::Parse("drop:0.01,dup:0.01");
  LAZYREP_CHECK(plan.ok()) << plan.status().ToString();
  config.faults = *plan;
  config.enable_wal = true;
  return config;
}

core::SystemConfig SimBackEdge() {
  // Table 1 defaults, b = 0.2, the calibrated cost model: the setting
  // every EXPERIMENTS.md figure is produced with.
  return lazyrep::harness::PaperConfig(core::Protocol::kBackEdge);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"table1_dagwt",
       "Paper workload on the implementation: 2PL commit path, history "
       "recording and DAG(WT)'s serial chain-forwarding applier.",
       true, 1500, false, Table1DagWt},
      {"ycsbb_snapshot",
       "YCSB-B zipf 0.8 at snapshot level: 95% of requests read through "
       "storage.mvcc and bypass the lock manager.",
       true, 6000, false, YcsbBSnapshot},
      {"dagt_lossy",
       "DAG(T) with 1% drop and dup plus WAL: the only path through the "
       "reliable transport, the WAL and DAG(T) epochs and dummies.",
       true, 600, true, DagTLossy},
      {"sim_backedge",
       "Sim runtime, paper cost model, b=0.2, BackEdge: how the figures "
       "are made; wall time isolates simulator, engines and oracle.",
       false, 400, false, SimBackEdge},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

core::SystemConfig MakeConfig(const Workload& workload, uint64_t seed,
                              double scale) {
  core::SystemConfig config = workload.base_config();
  config.workload.txns_per_thread = std::max(
      1, static_cast<int>(std::lround(workload.txns_per_client * scale)));
  // Which sites hold which copies is the database's layout, not its input:
  // it comes from one fixed seed, so runs with different seeds differ in
  // their transactions and faults only. (Drawing the placement from the
  // run seed too made the copy graph, and with it the work per
  // transaction, vary by up to 60% between seeds.)
  lazyrep::Rng placement_rng(kPlacementSeed);
  lazyrep::Result<lazyrep::graph::Placement> placement =
      lazyrep::workload::MakeWorkloadPlacement(config.workload,
                                               &placement_rng);
  LAZYREP_CHECK(placement.ok()) << placement.status().ToString();
  config.placement = *placement;
  config.seed = seed;
  // Aborted attempts are retried (with the program's randomized backoff),
  // so every client request eventually commits: aborts stay visible as a
  // retry share, and no request of any workload fails.
  config.retry = core::RetryPolicy::kRetryUntilCommit;
  return config;
}

int64_t ClientTxns(const core::SystemConfig& config) {
  return static_cast<int64_t>(config.workload.num_sites) *
         config.workload.threads_per_site * config.workload.txns_per_thread;
}

}  // namespace lazybench
