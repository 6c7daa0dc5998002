// The paper's figures and text metrics (§5.3), the Table 1 ranges of
// [BKRSS98] and our ablations as sweeps of one driver (--sweep=NAME; --help
// lists them). Each sweep's comment gives the curve it predicts and why.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"

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

/// The system `config`'s first seed runs, for the placement, backedges
/// and tree the runs really use. Exits 2 when the system rejects `config`.
std::unique_ptr<core::System> SeedOneSystem(const Config& config) {
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
          SeedOneSystem(config)->routing().placement().TotalReplicas());
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

/// Prints the banner and the table header; returns the table.
Table Start(const BenchOptions& options, const char* title,
            const Config& base, std::vector<std::string> headers) {
  bench::PrintBanner(title, base, options);
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
  /// fig2a only: its rows also go to --json, the value under this key.
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
  if (!options.config.workload.topology.empty() ||
      options.config.workload.replication_factor !=
          BenchOptions().config.workload.replication_factor) {
    std::exit(harness::UsageError(Status::InvalidArgument(
        "--sweep=tree_shape runs its own 12-site hierarchy placement; "
        "--topology and --replication-factor do not apply")));
  }
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
    core::Routing routing = SeedOneSystem(config)->routing();
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
    core::Routing routing = SeedOneSystem(config)->routing();
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

// Extension: DAG(WT) ships a window's secondaries to a tree child as one
// message, amortizing the dominant per-message CPU cost at the price of
// propagation delay. Forwarding order is kept, so serializability holds.
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
    config.engine.batch_window = Millis(window_ms);
    core::RunMetrics one = SeedOneSystem(config)->Run();  // For bytes/msg.
    double bytes = static_cast<double>(one.bytes) /
                   static_cast<double>(std::max<uint64_t>(one.messages, 1));
    AggregateResult r = harness::RunSeeds(config, options.seeds);
    std::vector<std::string> row =
        Row({Table::Num(window_ms, 0)}, {kTps, kAbort, kMsgs}, config, r);
    row.push_back(Table::Num(bytes, 0));
    table.PrintRow(Row(row, {kProp, kSr}, config, r));
  }
}

constexpr std::pair<const char*, void (*)(const BenchOptions&)> kSweeps[] = {
    {"fig2a", Fig2a}, {"fig2b", Fig2b}, {"fig3a", Fig3<0>},
    {"fig3b", Fig3<1>}, {"response_time", ResponseTime}, {"sites", Sites},
    {"latency", Latency}, {"dagwt_vs_dagt", DagWtVsDagT},
    {"dagt_period", DagTPeriod}, {"tree_shape", TreeShape},
    {"deadlock_policy", DeadlockPolicy}, {"backedge_method", BackedgeMethod},
    {"protocol_spectrum", ProtocolSpectrum}, {"skew", Skew},
    {"dagwt_batching", DagWtBatching}};

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
