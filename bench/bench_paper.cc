// The paper's figures and text metrics (§5.3), the Table 1 ranges of
// [BKRSS98], our ablations and the extension sweeps (runtime scaling,
// batching, read serving, workloads, scale-out) as sweeps of one binary
// (--sweep=NAME; --help lists them). Each sweep's comment gives the curve
// it predicts and why.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace {

using namespace lazyrep;
using core::Protocol;
using harness::AggregateResult;
using harness::BenchOptions;
using harness::Table;
using Config = core::SystemConfig;

/// A result column of a table row.
enum Col { kTps, kAbort, kResp, kRespP95, kMsgs, kProp, kReplicas, kSr,
           kConverged };

/// The system `config` runs; exits 2 with the reason when it rejects
/// `config`. On a sweep's config (seed 1), it holds the placement,
/// backedges and tree that the sweep's runs really use.
std::unique_ptr<core::System> CreateSystem(const Config& config) {
  Result<std::unique_ptr<core::System>> system = core::System::Create(config);
  if (!system.ok()) std::exit(harness::UsageError(system.status()));
  return std::move(*system);
}

/// One cell of `r`, the aggregate over `config`'s seeds. PSL propagates
/// nothing, so its propagation cell is "n/a".
std::string Cell(Col col, const Config& config, const AggregateResult& r) {
  switch (col) {
    case kTps: return Table::Num(r.throughput);
    case kAbort: return Table::Num(r.abort_rate_pct);
    case kResp: return Table::Num(r.response_ms);
    case kRespP95: return Table::Num(r.response_p95_ms);
    case kMsgs: return Table::Num(r.messages_per_txn);
    case kProp:
      return config.protocol == Protocol::kPsl ? "n/a"
                                               : Table::Num(r.propagation_ms);
    case kReplicas:  // The paper's "almost 500 replicas at r=1".
      return std::to_string(
          CreateSystem(config)->routing().placement().TotalReplicas());
    case kSr: return r.all_serializable ? "yes" : "NO";
    case kConverged: return r.all_converged ? "yes" : "NO";
  }
  return "";
}

/// `labels`, then one cell per column.
std::vector<std::string> Row(std::vector<std::string> labels,
                             const std::vector<Col>& cols,
                             const Config& config, const AggregateResult& r) {
  for (Col col : cols) labels.push_back(Cell(col, config, r));
  return labels;
}

/// The paper's defaults for `protocol` with the command line applied.
Config Base(const BenchOptions& options, Protocol protocol) {
  Config config = harness::PaperConfig(protocol);
  harness::ApplyOptions(options, &config);
  return config;
}

/// Prints the banner: what the sweep reproduces and the Table 1
/// parameters in effect.
void PrintBanner(const char* title, const Config& config,
                 const BenchOptions& options) {
  std::printf("# %s\n", title);
  std::printf("# params: %s\n", config.workload.ToString().c_str());
  std::printf("# txns/thread=%d seeds=%d runtime=%s%s\n",
              options.txns_per_thread, options.seeds,
              runtime::RuntimeKindName(config.runtime),
              options.quick ? " (quick mode; use --full for paper scale)"
                            : "");
  if (config.runtime == runtime::RuntimeKind::kThreads) {
    std::printf("# threads runtime: metrics are wall-clock measurements "
                "and vary run to run\n");
  }
}

/// Prints the banner and the table header; returns the table.
Table Start(const BenchOptions& options, const char* title,
            const Config& base, std::vector<std::string> headers) {
  PrintBanner(title, base, options);
  Table table(std::move(headers), options.csv);
  table.PrintHeader();
  return table;
}

// --- Two-arm sweeps: one axis, two protocols --------------------------------

struct Arm {
  Protocol protocol;
  const char* name;  // Heads the tps column (plot_bench.py plots *_tps).
  const char* tag;   // Heads the other columns.
};

constexpr Arm kBackEdge{Protocol::kBackEdge, "BackEdge", "BE"};
constexpr Arm kPsl{Protocol::kPsl, "PSL", "PSL"};

struct Axis {
  const char* name;
  std::vector<double> values;
  int decimals;
  void (*set)(Config* config, double value);
  /// Set when the rows also go to --json (bench `sweep`): the value's key.
  const char* json_key = nullptr;
};

/// Runs both arms at every value of `axis` over `base`. Every column is
/// printed per arm, except the replica count (the first arm's placement)
/// and the propagation delay of PSL, which propagates nothing.
void TwoArmSweep(const BenchOptions& options, const char* sweep,
                 const char* title, const Config& base, const Arm& first,
                 const Arm& second, const Axis& axis,
                 const std::vector<Col>& cols) {
  // Header suffixes, indexed by Col.
  static constexpr const char* kMetric[] = {
      "tps", "abort%", "resp_ms", "resp_p95_ms", "msgs/txn", "prop_ms",
      "replicas", "SR", "converged"};
  const Arm* arms[2] = {&first, &second};
  std::vector<std::pair<Col, int>> slots;  // (column, arm)
  std::vector<std::string> headers = {axis.name};
  for (Col col : cols) {
    for (int i = 0; i < 2; ++i) {
      const Arm& arm = *arms[i];
      if (col == kReplicas ? i == 1
                           : col == kProp && arm.protocol == Protocol::kPsl) {
        continue;
      }
      slots.push_back({col, i});
      headers.push_back(col == kReplicas ? "replicas"
                        : std::string(col == kTps ? arm.name : arm.tag) +
                              "_" + kMetric[col]);
    }
  }
  Table table = Start(options, title, base, headers);
  for (double value : axis.values) {
    Config configs[2];
    AggregateResult results[2];
    for (int i = 0; i < 2; ++i) {
      configs[i] = base;
      configs[i].protocol = arms[i]->protocol;
      axis.set(&configs[i], value);
      results[i] = harness::RunSeeds(configs[i], options.seeds);
    }
    for (int i = 0; axis.json_key != nullptr && i < 2; ++i) {
      harness::AppendBenchJson(options.json, sweep, arms[i]->name,
                               base.runtime, {{axis.json_key, value}},
                               results[i]);
    }
    std::vector<std::string> row = {Table::Num(value, axis.decimals)};
    for (const auto& [col, i] : slots) {
      row.push_back(Cell(col, configs[i], results[i]));
    }
    table.PrintRow(row);
  }
}

// Figure 2(a), with the abort-rate trend of §5.3.1. Paper shape: BackEdge
// ≈ 3x PSL at b=0, declining as b grows (more backedge subtransactions ->
// longer lock holds -> global deadlocks), but still above PSL at b=1. PSL
// is nearly flat with a slight decline.
void Fig2a(const BenchOptions& options) {
  TwoArmSweep(
      options, "fig2a",
      "Figure 2(a): throughput vs backedge probability (BackEdge vs PSL)",
      Base(options, Protocol::kBackEdge), kBackEdge, kPsl,
      {"b", {0, .1, .2, .3, .4, .5, .6, .7, .8, .9, 1}, 1,
       [](Config* c, double v) { c->workload.backedge_prob = v; },
       "backedge_prob"},
      {kTps, kAbort, kMsgs, kSr});
}

// Figure 2(b). Paper shape: both degrade as replicas grow, sharply from
// r=0 (all transactions local, the protocols identical) to r=0.1; BackEdge
// stays ≈2x PSL for r > 0: replicas multiply much faster than replicated
// items, and 85% of operations are reads (remote for PSL, local for BE).
void Fig2b(const BenchOptions& options) {
  TwoArmSweep(
      options, "fig2b",
      "Figure 2(b): throughput vs replication probability (BackEdge vs PSL)",
      Base(options, Protocol::kBackEdge), kBackEdge, kPsl,
      {"r", {0, .1, .2, .3, .4, .5, .6, .7, .8, .9, 1}, 1,
       [](Config* c, double v) { c->workload.replication_prob = v; }},
      {kTps, kAbort, kReplicas, kSr});
}

// Figure 3: read-op probability at r=0.5, no read-only txns. 3(a), b=0.
// Paper shape: at read prob 0 PSL wins (it propagates nothing and runs
// fully locally; BackEdge must push every update to replicas); the curves
// cross quickly, BackEdge peaks at ≈5x PSL around 0.5, and PSL dips until
// ~0.5 before recovering as contention fades. 3(b), b=1, is BackEdge's
// worst case (almost every update makes a backedge subtransaction). Paper
// shape: PSL as in 3(a); BackEdge lags PSL below read prob ≈0.3 (global
// deadlocks dominate) and wins above it despite b=1.
template <int kB>
void Fig3(const BenchOptions& options) {
  Config base = Base(options, Protocol::kBackEdge);
  base.workload.backedge_prob = kB;
  base.workload.replication_prob = 0.5;
  base.workload.read_txn_prob = 0.0;
  std::string title = std::string("Figure 3(") + (kB == 0 ? "a" : "b") +
                      "): throughput vs read-op probability (b=" +
                      std::to_string(kB) + ", r=0.5, no read-only txns)";
  TwoArmSweep(options, kB == 0 ? "fig3a" : "fig3b", title.c_str(), base,
              kBackEdge, kPsl,
              {"read_prob", {0, .1, .2, .3, .4, .5, .6, .7, .8, .9, 1}, 1,
               [](Config* c, double v) { c->workload.read_op_prob = v; }},
              {kTps, kAbort, kSr});
}

// Table 1's 3-15 sites ([BKRSS98]), 3 per machine. Expected shape:
// BackEdge's advantage persists at every scale; per-site throughput falls
// as each machine hosts more work and replicas spread wider.
void Sites(const BenchOptions& options) {
  TwoArmSweep(
      options, "sites",
      "[BKRSS98] sweep: throughput vs number of sites (3 per machine)",
      Base(options, Protocol::kBackEdge), kBackEdge, kPsl,
      {"sites", {3, 6, 9, 12, 15}, 0,
       [](Config* c, double v) {
         c->workload.num_sites = static_cast<int>(v);
       }},
      {kTps, kAbort, kSr});
}

// Table 1's 0.15-100 ms one-way latency ([BKRSS98]). Expected shape: PSL
// collapses quickly — remote reads put the latency on every critical path
// and hold remote S locks across it — while lazy propagation keeps it off
// BackEdge's critical path (only backedge transactions suffer).
void Latency(const BenchOptions& options) {
  TwoArmSweep(
      options, "latency",
      "[BKRSS98] sweep: throughput vs one-way network latency",
      Base(options, Protocol::kBackEdge), kBackEdge, kPsl,
      {"latency_ms", {0.15, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0}, 2,
       [](Config* c, double v) { c->workload.network_latency = Millis(v); }},
      {kTps, kAbort, kProp});
}

// Table 1's 1-5 threads per site, [BKRSS98]'s multiprogramming range.
// Expected shape: throughput rises with moderate multiprogramming, then
// contention (lock waits, deadlock timeouts) flattens or reverses it;
// BackEdge stays ahead.
void Threads(const BenchOptions& options) {
  TwoArmSweep(
      options, "sweep_threads",
      "[BKRSS98] sweep: throughput vs threads per site (multiprogramming)",
      Base(options, Protocol::kBackEdge), kBackEdge, kPsl,
      {"threads", {1, 2, 3, 4, 5}, 0,
       [](Config* c, double v) {
         c->workload.threads_per_site = static_cast<int>(v);
       },
       "threads"},
      {kTps, kAbort, kResp});
}

// Extension ablation: Zipf(θ) access skew. Hot items concentrate
// conflicts, driving deadlock timeouts up and throughput down for both;
// PSL also funnels all hot reads to the hot items' primary sites.
void Skew(const BenchOptions& options) {
  TwoArmSweep(
      options, "skew",
      "Ablation: Zipf access skew (theta=0 is the paper's uniform workload)",
      Base(options, Protocol::kBackEdge), kBackEdge, kPsl,
      {"theta", {0.0, 0.4, 0.8, 1.0, 1.2}, 1,
       [](Config* c, double v) { c->workload.zipf_theta = v; }},
      {kTps, kAbort, kSr});
}

// §3's motivation: DAG(WT) relays secondaries through intermediate tree
// sites (messages, delay); DAG(T) sends them straight along copy-graph
// edges but pays for timestamps and dummies (counted in msgs/txn).
void DagWtVsDagT(const BenchOptions& options) {
  Config base = Base(options, Protocol::kDagWt);
  base.workload.backedge_prob = 0.0;  // Both need an acyclic copy graph.
  TwoArmSweep(
      options, "dagwt_vs_dagt",
      "Ablation: DAG(WT) vs DAG(T) — relayed vs direct propagation (b=0)",
      base, {Protocol::kDagWt, "DAGWT", "DAGWT"},
      {Protocol::kDagT, "DAGT", "DAGT"},
      {"r", {0.1, 0.2, 0.4, 0.6, 0.8}, 1,
       [](Config* c, double v) { c->workload.replication_prob = v; }},
      {kTps, kMsgs, kProp, kSr});
}

// §5.3.4: mean response ≈180 ms for BackEdge vs ≈260 ms for PSL, updates
// at all replicas in "a few hundred millisec". Absolute times differ from
// the 1999 testbed; the ratio and the order of magnitude are the targets.
void ResponseTime(const BenchOptions& options) {
  Config base = Base(options, Protocol::kBackEdge);
  Table table = Start(options,
                      "Section 5.3.4: response time and propagation "
                      "recency (Table 1 defaults)",
                      base,
                      {"protocol", "tps", "abort%", "response_ms",
                       "resp_p95_ms", "propagation_ms", "msgs/txn", "SR"});
  for (Protocol protocol : {Protocol::kBackEdge, Protocol::kPsl}) {
    Config config = base;
    config.protocol = protocol;
    AggregateResult r = harness::RunSeeds(config, options.seeds);
    std::string name = core::ProtocolName(protocol);
    harness::AppendBenchJson(options.json, "response_time", name,
                             config.runtime, {}, r);
    table.PrintRow(Row({name},
                       {kTps, kAbort, kResp, kRespP95, kProp, kMsgs, kSr},
                       config, r));
  }
}

// DAG(T)'s progress machinery (§3.3), whose period the paper does not
// report: short epoch/dummy periods cut propagation delay but flood the
// CPUs with dummies; long ones are cheap but gate propagation.
void DagTPeriod(const BenchOptions& options) {
  Config base = Base(options, Protocol::kDagT);
  base.workload.backedge_prob = 0.0;
  Table table = Start(options,
                      "Ablation: DAG(T) epoch/dummy period — propagation "
                      "delay vs dummy traffic",
                      base,
                      {"period_ms", "tps", "abort%", "msgs/txn", "prop_ms",
                       "SR"});
  for (double period_ms : {10.0, 25.0, 50.0, 100.0, 250.0}) {
    Config config = base;
    config.engine.epoch_period = Millis(period_ms);
    config.engine.dummy_period = Millis(period_ms);
    // A run that cannot finish its workload is reported as SATURATED.
    config.max_sim_time = Seconds(300);
    AggregateResult r =
        harness::RunSeeds(config, options.seeds, /*allow_timeout=*/true);
    std::vector<std::string> row = Row({Table::Num(period_ms, 0)},
                                       {kTps, kAbort, kMsgs, kProp, kSr},
                                       config, r);
    if (r.runs == 0) row = {row[0], "SATURATED", "-", "-", "-", "-"};
    table.PrintRow(row);
  }
}

/// Exits 2 if --topology or --replication-factor is set: `sweep` runs its
/// own placement, `what`.
void RejectPlacementFlags(const BenchOptions& options, const char* sweep,
                          const char* what) {
  if (!options.config.workload.topology.empty() ||
      options.config.workload.replication_factor !=
          BenchOptions().config.workload.replication_factor) {
    std::exit(harness::UsageError(Status::InvalidArgument(
        std::string("--sweep=") + sweep + " runs its own " + what +
        "; --topology and --replication-factor do not apply")));
  }
}

// A random out-tree over `m` sites; each site's items are replicated
// along a random path down its subtree (child ids exceed their parent's).
graph::Placement HierarchyPlacement(int m, int items_per_site) {
  Rng rng(4242);
  std::vector<std::vector<SiteId>> children(m);
  for (SiteId v = 1; v < m; ++v) children[rng.Below(v)].push_back(v);
  graph::Placement p;
  p.num_sites = m;
  p.num_items = m * items_per_site;
  p.primary.resize(p.num_items);
  p.replicas.resize(p.num_items);
  for (ItemId i = 0; i < p.num_items; ++i) {
    SiteId v = i / items_per_site;
    p.primary[i] = v;
    if (children[v].empty() || !rng.Bernoulli(0.6)) continue;
    while (!children[v].empty() && rng.Bernoulli(0.8)) {
      v = children[v][rng.Index(children[v].size())];
      p.replicas[i].push_back(v);
    }
  }
  return p;
}

// §5.1: the implemented chain tree is weaker than a general one. §5.2's
// placements make the greedy tree degenerate to the chain, so this uses a
// warehouse-style hierarchy (§1's motivating DAG), where the branching
// tree propagates straight down and the chain relays via unrelated sites.
void TreeShape(const BenchOptions& options) {
  RejectPlacementFlags(options, "tree_shape", "12-site hierarchy placement");
  Config base = Base(options, Protocol::kDagWt);
  base.workload.num_sites = 12;
  base.workload.sites_per_machine = 3;
  base.workload.num_items = 12 * 18;
  base.placement = HierarchyPlacement(12, 18);
  Table table = Start(options,
                      "Ablation: DAG(WT) propagation tree shape on a "
                      "12-site hierarchy — chain (paper impl) vs greedy "
                      "branching tree",
                      base,
                      {"tree", "depth", "tps", "abort%", "msgs/txn",
                       "prop_ms", "SR"});
  for (auto [label, kind] : {std::pair{"chain", core::TreeKind::kChain},
                             std::pair{"greedy", core::TreeKind::kGreedy}}) {
    Config config = base;
    config.engine.tree = kind;
    core::Routing routing = CreateSystem(config)->routing();
    int depth = 0;
    for (SiteId s = 0; s < routing.num_sites(); ++s) {
      depth = std::max(depth, routing.tree()->Depth(s));
    }
    AggregateResult r = harness::RunSeeds(config, options.seeds);
    table.PrintRow(Row({label, std::to_string(depth)},
                       {kTps, kAbort, kMsgs, kProp, kSr}, config, r));
  }
}

// The paper's 50 ms lock timeout vs local waits-for detection (timeout
// kept as the distributed backstop), which breaks local deadlocks at once
// instead of burning the timeout; and the timeout value itself.
void DeadlockPolicy(const BenchOptions& options) {
  Config base = Base(options, Protocol::kBackEdge);
  Table table = Start(options,
                      "Ablation: deadlock handling — timeout (paper) vs "
                      "local detection; timeout sensitivity",
                      base,
                      {"policy", "timeout_ms", "tps", "abort%", "resp_ms",
                       "SR"});
  for (double timeout_ms : {10.0, 25.0, 50.0, 100.0, 200.0}) {
    for (auto [label, policy] :
         {std::pair{"timeout", storage::DeadlockPolicy::kTimeoutOnly},
          std::pair{"detection", storage::DeadlockPolicy::kLocalDetection}}) {
      Config config = base;
      config.workload.deadlock_timeout = Millis(timeout_ms);
      config.engine.deadlock_policy = policy;
      AggregateResult r = harness::RunSeeds(config, options.seeds);
      table.PrintRow(Row({label, Table::Num(timeout_ms, 0)},
                         {kTps, kAbort, kResp, kSr}, config, r));
    }
  }
}

// §4.2: minimizing the backedge set's traffic weight is NP-hard (feedback
// arc set). Site-order (§5.2), dfs (§4), greedy (Eades–Lin–Smyth) and
// weighted (ELS over update traffic) on cyclic placements: less backedge
// traffic means fewer eager 2PC transactions and global deadlocks.
void BackedgeMethod(const BenchOptions& options) {
  Config base = Base(options, Protocol::kBackEdge);
  base.workload.backedge_prob = 0.6;
  base.workload.replication_prob = 0.4;
  Table table = Start(
      options, "Ablation: backedge-set selection (§4.2) on cyclic placements",
      base, {"method", "backedges", "traffic_w", "tps", "abort%", "SR"});
  for (auto [label, method] :
       {std::pair{"site-order", core::BackedgeMethod::kSiteOrder},
        std::pair{"dfs", core::BackedgeMethod::kDfs},
        std::pair{"greedy", core::BackedgeMethod::kGreedy},
        std::pair{"weighted", core::BackedgeMethod::kWeightedGreedy}}) {
    Config config = base;
    config.engine.backedge_method = method;
    core::Routing routing = CreateSystem(config)->routing();
    AggregateResult r = harness::RunSeeds(config, options.seeds);
    table.PrintRow(Row({label, std::to_string(routing.backedges().size()),
                        Table::Num(routing.BackedgeTrafficWeight(), 0)},
                       {kTps, kAbort, kSr}, config, r));
  }
}

// Every protocol on a DAG placement: the paper's lazy protocols, PSL,
// eager read-one/write-all (the intro's scalability foil) and §1's
// indiscriminate lazy propagation, with and without last-writer-wins.
void ProtocolSpectrum(const BenchOptions& options) {
  Config base = Base(options, Protocol::kDagWt);
  base.workload.backedge_prob = 0.0;
  // Jitter makes indiscriminate propagation's anomalies visible.
  base.costs.net_jitter = Millis(2);
  Table table = Start(
      options,
      "Ablation: full protocol spectrum at defaults (b=0, 2ms jitter)", base,
      {"protocol", "tps", "abort%", "resp_ms", "prop_ms", "msgs/txn",
       "serializable", "converged"});
  for (auto [protocol, lww] :
       {std::pair{Protocol::kDagWt, false}, std::pair{Protocol::kDagT, false},
        std::pair{Protocol::kBackEdge, false},
        std::pair{Protocol::kPsl, false}, std::pair{Protocol::kEager, false},
        std::pair{Protocol::kNaiveLazy, false},
        std::pair{Protocol::kNaiveLazy, true}}) {
    Config config = base;
    config.protocol = protocol;
    config.engine.naive_lww = lww;
    AggregateResult r = harness::RunSeeds(config, options.seeds);
    table.PrintRow(Row({core::ProtocolName(protocol) + (lww ? "+LWW" : "")},
                       {kTps, kAbort, kResp, kProp, kMsgs, kSr, kConverged},
                       config, r));
  }
  std::printf(
      "\nNotes: BackEdge equals DAG(WT) exactly at b=0 (no backedges =>\n"
      "identical protocol, identical seeded run). NaiveLazy CONVERGES in\n"
      "the primary-copy model (one master per item + FIFO channels mean\n"
      "last-writer-wins reconciliation never fires -- the +LWW row is\n"
      "identical by construction) but is NOT serializable: stale reads\n"
      "weave Example 1.1 cycles across items.\n");
}

// Extension: the transport coalesces a window's posts to a tree child into
// one frame, amortizing the dominant per-message CPU cost at the price of
// propagation delay. Channel order is kept, so serializability holds.
void DagWtBatching(const BenchOptions& options) {
  Config base = Base(options, Protocol::kDagWt);
  base.workload.backedge_prob = 0.0;
  base.workload.replication_prob = 0.5;  // Plenty of propagation traffic.
  Table table = Start(options,
                      "Ablation: DAG(WT) secondary batching — messages vs "
                      "propagation delay",
                      base,
                      {"window_ms", "tps", "abort%", "msgs/txn",
                       "bytes/msg", "prop_ms", "SR"});
  for (double window_ms : {0.0, 1.0, 5.0, 20.0, 50.0}) {
    Config config = base;
    config.batching.window = Millis(window_ms);
    AggregateResult r = harness::RunSeeds(config, options.seeds);
    std::vector<std::string> row =
        Row({Table::Num(window_ms, 0)}, {kTps, kAbort, kMsgs}, config, r);
    row.push_back(Table::Num(r.bytes_per_message, 0));
    table.PrintRow(Row(row, {kProp, kSr}, config, r));
  }
}

// --- Extension sweeps: runtime scaling, batching, reads, workloads, scale --

/// This process's resource use so far (getrusage): CPU seconds, user plus
/// system, and the peak resident set in MB.
struct Usage {
  double cpu_s;
  double maxrss_mb;
};

Usage ProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(ru.ru_utime) + seconds(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};  // KiB on Linux.
}

/// `RunSeeds`' result and the process CPU it spent per committed
/// transaction: real CPU, unlike the sim's cost model.
struct Timed {
  AggregateResult result;
  double cpu_us_per_commit = 0;
};

Timed RunSeedsTimed(const Config& config, int seeds) {
  Timed timed;
  const double cpu_before = ProcessUsage().cpu_s;
  timed.result = harness::RunSeeds(config, seeds);
  const double cpu_spent = ProcessUsage().cpu_s - cpu_before;
  if (timed.result.committed > 0) {
    timed.cpu_us_per_commit =
        cpu_spent * 1e6 / static_cast<double>(timed.result.committed);
  }
  return timed;
}

/// The paper's defaults for `protocol` on the threads runtime, with the
/// command line applied.
Config ThreadsBase(const BenchOptions& options, Protocol protocol) {
  Config config = harness::PaperConfig(protocol);
  config.runtime = runtime::RuntimeKind::kThreads;
  harness::ApplyOptions(options, &config);
  return config;
}

// The threads runtime's machine scaling: one 4-site BackEdge workload on
// 1, 2 and 4 machines (sites_per_machine 4 -> 1). Each machine is an OS
// thread and a CPU charge occupies its machine's CPU for real time, so
// spreading the sites over more machines must raise measured throughput
// (>1x from 1 to 4 machines): the parallelism the runtime exists to show.
void Machines(const BenchOptions& options) {
  Config base = ThreadsBase(options, Protocol::kBackEdge);
  base.workload.num_sites = 4;
  base.workload.threads_per_site = 2;
  // Wall-clock runs pay real milliseconds per transaction; keep the
  // default sweep under a minute.
  if (!options.txns_set) base.workload.txns_per_thread = 30;
  Table table = Start(options,
                      "threads-runtime scaling: measured throughput vs "
                      "machines (4 sites, BackEdge)",
                      base,
                      {"machines", "sites/machine", "tps", "speedup",
                       "abort%", "SR", "converged"});
  double base_tps = 0;
  for (int spm : {4, 2, 1}) {
    Config config = base;
    config.workload.sites_per_machine = spm;
    int machines = (config.workload.num_sites + spm - 1) / spm;
    AggregateResult r = harness::RunSeeds(config, options.seeds);
    if (base_tps == 0) base_tps = r.throughput;
    double speedup = base_tps > 0 ? r.throughput / base_tps : 0;
    harness::AppendBenchJson(
        options.json, "sweep_threads_scaling", "BackEdge", config.runtime,
        {{"machines", static_cast<double>(machines)},
         {"sites_per_machine", static_cast<double>(spm)},
         {"speedup", speedup}},
        r);
    std::vector<std::string> row = Row(
        {std::to_string(machines), std::to_string(spm)}, {kTps}, config, r);
    row.push_back(Table::Num(speedup));
    table.PrintRow(Row(row, {kAbort, kSr, kConverged}, config, r));
  }
}

// Worker lanes: one 4-site BackEdge workload on one machine with 1, 2 and
// 4 worker lanes, under a 1-stripe (one global mutex) and an 8-stripe lock
// table. One core cannot show lane parallelism in wall-clock throughput
// (docs/PERFORMANCE.md §4), so the headline column is per-event CPU.
// Striping pays off as flat-or-falling CPU per commit as lanes grow, where
// the single mutex pays serialization and cache-line bouncing on every
// acquire and release.
void Multicore(const BenchOptions& options) {
  // Worker lanes only exist under the threads runtime; sim rejects
  // workers_per_site > 1 to keep goldens byte-stable.
  Config base = ThreadsBase(options, Protocol::kBackEdge);
  base.workload.num_sites = 4;
  base.workload.sites_per_machine = 4;  // One machine; lanes do the work.
  base.workload.threads_per_site = 2;
  if (!options.txns_set) base.workload.txns_per_thread = 30;
  Table table = Start(options,
                      "worker scaling: per-event CPU vs worker lanes "
                      "(4 sites on 1 machine, BackEdge, 1 vs 8 lock stripes)",
                      base,
                      {"stripes", "workers", "tps", "speedup",
                       "cpu_us/commit", "abort%", "SR", "converged"});
  for (int stripes : {1, 8}) {
    double base_tps = 0;
    for (int workers : {1, 2, 4}) {
      Config config = base;
      config.engine.lock_stripes = stripes;
      config.workers_per_site = workers;
      Timed timed = RunSeedsTimed(config, options.seeds);
      const AggregateResult& r = timed.result;
      if (base_tps == 0) base_tps = r.throughput;
      double speedup = base_tps > 0 ? r.throughput / base_tps : 0;
      harness::AppendBenchJson(
          options.json, "multicore_workers", "BackEdge", config.runtime,
          {{"lock_stripes", static_cast<double>(stripes)},
           {"workers", static_cast<double>(workers)},
           {"speedup", speedup},
           {"cpu_us_per_commit", timed.cpu_us_per_commit}},
          r);
      std::vector<std::string> row =
          Row({std::to_string(stripes), std::to_string(workers)}, {kTps},
              config, r);
      row.push_back(Table::Num(speedup));
      row.push_back(Table::Num(timed.cpu_us_per_commit));
      table.PrintRow(Row(row, {kAbort, kSr, kConverged}, config, r));
    }
  }
}

// Transport frame coalescing, ack piggybacking and WAL group commit
// (docs/PERFORMANCE.md §6) for the three lazy tree protocols at the
// defaults, against a baseline (window 0) through the same reliable
// transport with batching off, so the comparison isolates batching
// itself. Per committed transaction: first-transmission data and batch
// frames, standalone acks (piggybacked ones ride data frames free) and
// WAL sync boundaries (the fsync stand-in). Batching buys nothing if it
// breaks the protocol, so every run is checked.
void Batching(const BenchOptions& options) {
  auto protocol_base = [&](Protocol protocol) {
    Config base = Base(options, protocol);
    base.enable_wal = true;  // syncs/txn needs a log in both arms.
    if (protocol != Protocol::kBackEdge) {
      base.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
    }
    return base;
  };
  Table table = Start(options,
                      "batching: frames, standalone acks and WAL syncs per "
                      "committed transaction vs batch window (baseline = "
                      "same transport, batching off)",
                      protocol_base(Protocol::kDagWt),
                      {"protocol", "window_ms", "tps", "frames/txn",
                       "acks/txn", "syncs/txn", "batch_frames/txn", "SR",
                       "converged"});
  for (Protocol protocol :
       {Protocol::kDagWt, Protocol::kDagT, Protocol::kBackEdge}) {
    const Config base = protocol_base(protocol);
    for (double window_ms : {0.0, 1.0, 5.0, 20.0}) {
      Config config = base;
      if (window_ms == 0.0) {
        config.batching.force_transport = true;  // Baseline arm.
      } else {
        config.batching.window = Millis(window_ms);
        config.batching.piggyback_acks = true;
        config.batching.wal_group_commit = true;
      }
      // Seeds 1..N, not RunSeeds' spacing (BENCH_batching.json's rows):
      // the counters come from each run's transport and logs.
      AggregateResult r;
      int64_t aborted = 0;
      uint64_t frames = 0, acks = 0, batch_frames = 0, syncs = 0;
      for (int i = 0; i < options.seeds; ++i) {
        config.seed = static_cast<uint64_t>(i) + 1;
        std::unique_ptr<core::System> system = CreateSystem(config);
        core::RunMetrics m = system->Run();
        LAZYREP_CHECK(!m.timed_out) << "run saturated; shrink the workload";
        r.throughput += m.avg_site_throughput;
        r.committed += m.committed;
        aborted += m.aborted;
        r.all_serializable = r.all_serializable && m.serializable;
        r.all_converged = r.all_converged && m.converged;
        LAZYREP_CHECK(system->transport() != nullptr);
        frames += system->transport()->frames_sent();
        acks += system->transport()->acks_standalone();
        batch_frames += system->transport()->batch_frames_sent();
        for (SiteId s = 0; s < config.workload.num_sites; ++s) {
          if (system->database(s).wal() != nullptr) {
            syncs += system->database(s).wal()->sync_batches();
          }
        }
        ++r.runs;
      }
      r.throughput /= options.seeds;
      const double committed = static_cast<double>(r.committed);
      auto per_txn = [&](uint64_t n) {
        return committed > 0 ? static_cast<double>(n) / committed : 0.0;
      };
      if (r.committed + aborted > 0) {
        r.abort_rate_pct = 100.0 * static_cast<double>(aborted) /
                           static_cast<double>(r.committed + aborted);
      }
      const std::vector<double> counts = {per_txn(frames), per_txn(acks),
                                          per_txn(syncs),
                                          per_txn(batch_frames)};
      harness::AppendBenchJson(options.json, "batching",
                               core::ProtocolName(protocol), base.runtime,
                               {{"window_ms", window_ms},
                                {"frames_per_txn", counts[0]},
                                {"acks_per_txn", counts[1]},
                                {"wal_syncs_per_txn", counts[2]},
                                {"batch_frames_per_txn", counts[3]}},
                               r);
      std::vector<std::string> row =
          Row({core::ProtocolName(protocol), Table::Num(window_ms, 0)},
              {kTps}, config, r);
      for (double count : counts) row.push_back(Table::Num(count));
      table.PrintRow(Row(row, {kSr, kConverged}, config, r));
    }
  }
}

// Secondary read serving (docs/MVCC.md): MVCC snapshot reads vs strict-2PL
// reads. Every site is a secondary for most of the item space, so its read
// traffic is exactly the "read at a replica" load lazy propagation exists
// to serve. Grid: {YCSB-B, YCSB-C, balance-heavy SmallBank} x workers
// {1, 4} x {2PL, snapshot}, DAG(WT) at b=0 and theta=0.8 on the threads
// runtime (the workers axis needs real lanes). YCSB runs one op per
// request, so a 2PL read pays read_cpu + commit_cpu plus any S-lock wait
// behind writers and appliers, while a snapshot read pays
// snapshot_read_cpu and never touches the lock manager. Each arm's
// read-only throughput and p99 are measured on its own serving path.
// Exits 1 if a snapshot read was inconsistent.
void Reads(const BenchOptions& options) {
  Config base = ThreadsBase(options, Protocol::kDagWt);
  base.workload.backedge_prob = 0.0;
  base.workload.zipf_theta = 0.8;
  // Wall-clock runs: keep each of the 12 cells inside a few seconds.
  if (!options.txns_set) base.workload.txns_per_thread = 150;
  Table table = Start(options,
                      "secondary read serving: snapshot (MVCC) vs "
                      "serializable (2PL) read-only throughput "
                      "(docs/MVCC.md)",
                      base,
                      {"workload", "workers", "level", "tps", "read_tps",
                       "read_p99_ms", "lock_waits", "stale_ms", "speedup"});
  for (auto [kind, label] :
       {std::pair{workload::WorkloadKind::kYcsbB, "ycsb_b"},
        std::pair{workload::WorkloadKind::kYcsbC, "ycsb_c"},
        std::pair{workload::WorkloadKind::kSmallBank, "smallbank"}}) {
    for (int workers : {1, 4}) {
      Config config = base;
      config.workload.workload = kind;
      config.workers_per_site = workers;
      if (kind == workload::WorkloadKind::kSmallBank) {
        config.workload.read_txn_prob = 0.8;  // 80% Balance, multi-op.
      } else {
        config.workload.ops_per_txn = 1;  // One YCSB op per request.
      }
      auto run = [&](storage::ConsistencyLevel level) {
        Config arm = config;
        arm.consistency = level;
        return harness::RunSeeds(arm, options.seeds);
      };
      const AggregateResult ser =
          run(storage::ConsistencyLevel::kSerializable);
      const AggregateResult snap = run(storage::ConsistencyLevel::kSnapshot);
      const double speedup =
          ser.locked_read_throughput > 0
              ? snap.read_throughput / ser.locked_read_throughput
              : 0;
      const std::string bench = std::string("reads_") + label;
      const std::string protocol = core::ProtocolName(config.protocol);
      const double w = static_cast<double>(workers);
      const double theta = config.workload.zipf_theta;
      harness::AppendBenchJson(
          options.json, bench, protocol, config.runtime,
          {{"workers", w}, {"theta", theta}, {"snapshot_level", 0}}, ser);
      harness::AppendBenchJson(
          options.json, bench, protocol, config.runtime,
          {{"workers", w},
           {"theta", theta},
           {"snapshot_level", 1},
           {"read_speedup", speedup},
           {"lock_waits_removed", ser.lock_waits - snap.lock_waits}},
          snap);
      table.PrintRow({label, std::to_string(workers), "2pl",
                      Table::Num(ser.throughput),
                      Table::Num(ser.locked_read_throughput),
                      Table::Num(ser.locked_read_p99_ms, 2),
                      Table::Num(ser.lock_waits), "-", "-"});
      table.PrintRow({label, std::to_string(workers), "snapshot",
                      Table::Num(snap.throughput),
                      Table::Num(snap.read_throughput),
                      Table::Num(snap.read_p99_ms, 2),
                      Table::Num(snap.lock_waits),
                      Table::Num(snap.staleness_ms, 2),
                      Table::Num(speedup, 2) + "x"});
      if (!snap.all_snapshots_consistent) {
        std::printf("!! snapshot-consistency violation in %s workers=%d\n",
                    label, workers);
        std::exit(1);
      }
    }
  }
}

constexpr Protocol kPaperProtocols[] = {Protocol::kDagWt, Protocol::kDagT,
                                        Protocol::kBackEdge, Protocol::kPsl};

// Workload crossover atlas (docs/WORKLOADS.md §4): YCSB-A/B, SmallBank and
// TPC-C-lite x protocol over three grids: skew theta in {0, 0.8, 1.2};
// sites in {5, 9, 15} at theta=0.8; SmallBank's Balance fraction at
// theta=0.8 (YCSB covers its read axis through the A/B mixes). --quick
// runs the skew grid only. The point is the crossovers, where the
// protocol ranking flips: PSL loses 5x on read-heavy YCSB-B, where every
// replica read proxies to the primary, yet beats every tree protocol on
// partition-local TPC-C-lite. Every run is at b=0, so all protocols,
// BackEdge included, see the same DAG placements and the comparison
// isolates the propagation rule.
void Workloads(const BenchOptions& options) {
  Config base = Base(options, Protocol::kBackEdge);
  base.workload.backedge_prob = 0.0;
  // 100+ cells; keep the full atlas inside a few minutes of sim time.
  if (!options.txns_set) base.workload.txns_per_thread = 120;
  // Runs `config`; its row is `label`, the protocol, tps, CPU per commit,
  // then `cols`.
  auto cell = [&](const Table& table, const Config& config,
                  std::vector<std::string> labels,
                  const std::vector<Col>& cols) {
    Timed timed = RunSeedsTimed(config, options.seeds);
    harness::AppendBenchJson(
        options.json,
        std::string("atlas_") +
            workload::WorkloadKindName(config.workload.workload),
        core::ProtocolName(config.protocol), config.runtime,
        {{"theta", config.workload.zipf_theta},
         {"sites", static_cast<double>(config.workload.num_sites)},
         {"read_txn_prob", config.workload.read_txn_prob},
         {"cpu_us_per_commit", timed.cpu_us_per_commit}},
        timed.result);
    labels.push_back(core::ProtocolName(config.protocol));
    labels = Row(std::move(labels), {kTps}, config, timed.result);
    labels.push_back(Table::Num(timed.cpu_us_per_commit));
    table.PrintRow(Row(std::move(labels), cols, config, timed.result));
  };
  constexpr workload::WorkloadKind kWorkloads[] = {
      workload::WorkloadKind::kYcsbA, workload::WorkloadKind::kYcsbB,
      workload::WorkloadKind::kSmallBank, workload::WorkloadKind::kTpccLite};

  Table skew = Start(options,
                     "workload crossover atlas: YCSB / SmallBank / "
                     "TPC-C-lite x protocol x skew x sites "
                     "(docs/WORKLOADS.md)",
                     base,
                     {"workload", "theta", "protocol", "tps",
                      "cpu_us/commit", "abort%", "resp_ms", "msgs/txn", "SR",
                      "conv"});
  for (workload::WorkloadKind kind : kWorkloads) {
    for (double theta : {0.0, 0.8, 1.2}) {
      for (Protocol protocol : kPaperProtocols) {
        Config config = base;
        config.protocol = protocol;
        config.workload.workload = kind;
        config.workload.zipf_theta = theta;
        cell(skew, config,
             {workload::WorkloadKindName(kind), Table::Num(theta, 1)},
             {kAbort, kResp, kMsgs, kSr, kConverged});
      }
    }
  }
  if (options.quick) return;

  std::printf("\n# site scaling at theta=0.8\n");
  Table sites({"workload", "sites", "protocol", "tps", "cpu_us/commit",
               "abort%", "msgs/txn", "SR", "conv"},
              options.csv);
  sites.PrintHeader();
  for (workload::WorkloadKind kind : kWorkloads) {
    for (int m : {5, 9, 15}) {
      for (Protocol protocol : kPaperProtocols) {
        Config config = base;
        config.protocol = protocol;
        config.workload.workload = kind;
        config.workload.zipf_theta = 0.8;
        config.workload.num_sites = m;
        // Items per site stay at the paper's 200/9 (22) as sites grow, as
        // TPC-C scales warehouses.
        config.workload.num_items = m * (200 / 9);
        cell(sites, config,
             {workload::WorkloadKindName(kind), std::to_string(m)},
             {kAbort, kMsgs, kSr, kConverged});
      }
    }
  }

  std::printf("\n# smallbank balance-fraction sweep at theta=0.8\n");
  Table mix({"balance_frac", "protocol", "tps", "cpu_us/commit", "abort%",
             "msgs/txn", "SR", "conv"},
            options.csv);
  mix.PrintHeader();
  for (double balance : {0.2, 0.5, 0.8}) {
    for (Protocol protocol : kPaperProtocols) {
      Config config = base;
      config.protocol = protocol;
      config.workload.workload = workload::WorkloadKind::kSmallBank;
      config.workload.zipf_theta = 0.8;
      config.workload.read_txn_prob = balance;
      cell(mix, config, {Table::Num(balance, 1)},
           {kAbort, kMsgs, kSr, kConverged});
    }
  }
}

// Scale-out (docs/SCALE.md): setup cost, per-commit CPU and peak memory
// as the copy graph grows past the paper's m=9. First a deep chain at
// m in {9, 32, 64, 128} ({9, 32} with --quick), then the tree, fan and
// random families at the largest m, the DAG protocols on acyclic graphs
// only. The old blockers were quadratic bookkeeping, not the protocols:
// setup_us must grow about linearly in m, and setup_scans (full placement
// scans during assembly) must stay 0. maxrss_mb is the process's peak, so
// it only grows; cells run smallest m first.
void Scale(const BenchOptions& options) {
  RejectPlacementFlags(options, "scale",
                       "chain, tree, fan and random topologies");
  Config base = Base(options, Protocol::kDagT);
  // Event counts scale with m; keep 128-site cells inside seconds.
  if (!options.txns_set) base.workload.txns_per_thread = 40;
  // Runs `protocol` on `topology` and prints its row.
  auto cell = [&](const Table& table, const std::string& topology,
                  Protocol protocol) {
    Config config = base;
    config.protocol = protocol;
    config.workload.topology = topology;
    harness::ApplyTopology(&config.workload);
    // Assembly alone: topology and placement generation, routing and the
    // site databases, the part that was quadratic in m.
    const long scans_before = graph::Placement::FullScanCount();
    const double cpu_before = ProcessUsage().cpu_s;
    double setup_us = 0;
    {
      std::unique_ptr<core::System> system = CreateSystem(config);
      setup_us = (ProcessUsage().cpu_s - cpu_before) * 1e6;
    }
    const double scans = static_cast<double>(
        graph::Placement::FullScanCount() - scans_before);
    Timed timed = RunSeedsTimed(config, options.seeds);
    const double maxrss_mb = ProcessUsage().maxrss_mb;
    harness::AppendBenchJson(
        options.json, "scale_" + topology.substr(0, topology.find(':')),
        core::ProtocolName(protocol), config.runtime,
        {{"sites", static_cast<double>(config.workload.num_sites)},
         {"items", static_cast<double>(config.workload.num_items)},
         {"rf", static_cast<double>(config.workload.replication_factor)},
         {"setup_cpu_us", setup_us},
         {"setup_full_scans", scans},
         {"cpu_us_per_commit", timed.cpu_us_per_commit},
         {"maxrss_mb", maxrss_mb}},
        timed.result);
    std::vector<std::string> row =
        Row({topology, core::ProtocolName(protocol), Table::Num(setup_us),
             Table::Num(scans, 0)},
            {kTps}, config, timed.result);
    row.push_back(Table::Num(timed.cpu_us_per_commit));
    row = Row(std::move(row), {kMsgs}, config, timed.result);
    row.push_back(Table::Num(maxrss_mb));
    table.PrintRow(Row(std::move(row), {kSr, kConverged}, config,
                       timed.result));
  };
  const std::vector<std::string> headers = {
      "topology", "protocol", "setup_us",  "setup_scans", "tps",
      "cpu_us/commit", "msgs/txn", "maxrss_mb", "SR", "conv"};
  const std::vector<int> chain_sites =
      options.quick ? std::vector<int>{9, 32}
                    : std::vector<int>{9, 32, 64, 128};

  Table chain = Start(options,
                      "scale-out: setup cost, per-commit CPU and peak memory "
                      "on 100+ site topologies (docs/SCALE.md)",
                      base, headers);
  for (int m : chain_sites) {
    for (Protocol protocol : kPaperProtocols) {
      cell(chain, "chain:" + std::to_string(m), protocol);
    }
  }

  const std::string m = std::to_string(chain_sites.back());
  std::printf("\n# topology families at m=%s\n", m.c_str());
  Table families(headers, options.csv);
  families.PrintHeader();
  for (const auto& [topology, cyclic] :
       {std::pair{"tree:" + m + ",4", false}, std::pair{"fan:" + m, false},
        std::pair{"rand:" + m + ",0", false},
        std::pair{"rand:" + m + ",0.10", true}}) {
    for (Protocol protocol : kPaperProtocols) {
      // DAG protocols need an acyclic copy graph.
      if (cyclic && (protocol == Protocol::kDagWt ||
                     protocol == Protocol::kDagT)) {
        continue;
      }
      cell(families, topology, protocol);
    }
  }
}

// Calibration probe, not a paper figure: lock and latency breakdowns of
// one BackEdge run at b=0, for tuning the cost model.
void Probe(const BenchOptions& options) {
  Config config = Base(options, Protocol::kBackEdge);
  config.workload.backedge_prob = 0.0;
  std::unique_ptr<core::System> system = CreateSystem(config);
  core::RunMetrics m = system->Run();
  std::printf("committed=%lld aborted=%lld tput=%.2f abort%%=%.2f\n",
              (long long)m.committed, (long long)m.aborted,
              m.avg_site_throughput, m.abort_rate_pct);
  std::printf("response: %s\n", m.response_ms.ToString().c_str());
  std::printf("propagation: %s\n",
              m.propagation_delay_ms.ToString().c_str());
  std::printf("messages=%llu lock_waits=%llu lock_timeouts=%llu\n",
              (unsigned long long)m.messages,
              (unsigned long long)m.lock_waits,
              (unsigned long long)m.lock_timeouts);
  for (SiteId s = 0; s < config.workload.num_sites; ++s) {
    const auto& stats = system->database(s).locks().stats();
    std::printf(
        "site %d: requests=%llu grants=%llu waits=%llu timeouts=%llu "
        "wait_aborts=%llu wait_ms={%s}\n",
        s, (unsigned long long)stats.requests,
        (unsigned long long)stats.immediate_grants,
        (unsigned long long)stats.waits,
        (unsigned long long)stats.timeouts,
        (unsigned long long)stats.wait_aborts,
        stats.wait_time_ms.ToString().c_str());
  }
}

constexpr std::pair<const char*, void (*)(const BenchOptions&)> kSweeps[] = {
    {"fig2a", Fig2a}, {"fig2b", Fig2b}, {"fig3a", Fig3<0>},
    {"fig3b", Fig3<1>}, {"response_time", ResponseTime}, {"sites", Sites},
    {"latency", Latency}, {"dagwt_vs_dagt", DagWtVsDagT},
    {"dagt_period", DagTPeriod}, {"tree_shape", TreeShape},
    {"deadlock_policy", DeadlockPolicy}, {"backedge_method", BackedgeMethod},
    {"protocol_spectrum", ProtocolSpectrum}, {"skew", Skew},
    {"dagwt_batching", DagWtBatching}, {"threads", Threads},
    {"machines", Machines}, {"multicore", Multicore}, {"batching", Batching},
    {"reads", Reads}, {"workloads", Workloads}, {"scale", Scale},
    {"probe", Probe}};

}  // namespace

int main(int argc, char** argv) {
  std::string names;
  for (const auto& [name, run] : kSweeps) {
    names += (names.empty() ? "" : ", ") + std::string(name);
  }
  void (*sweep)(const BenchOptions&) = nullptr;
  harness::Flag<BenchOptions> sweep_flag{
      "sweep", "", "NAME", "the sweep to run: " + names,
      [&](const std::string& value, BenchOptions*) {
        sweep = nullptr;
        for (const auto& [name, run] : kSweeps) {
          if (value == name) sweep = run;
        }
        return sweep ? Status::OK() : Status::InvalidArgument("unknown sweep");
      },
      [](const BenchOptions&) { return std::optional<std::string>(); }};
  BenchOptions options = harness::ParseBenchArgs(argc, argv, {sweep_flag});
  if (sweep == nullptr) {
    return harness::UsageError(Status::InvalidArgument("--sweep is required"));
  }
  sweep(options);
  return 0;
}
