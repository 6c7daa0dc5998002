// Workload crossover atlas (docs/WORKLOADS.md §4): the standard
// benchmark suite — YCSB-A/B, SmallBank, TPC-C-lite — swept over
// protocol × skew × site count × read mix, with per-event CPU.
//
// The point of the atlas is protocol *crossovers*: regions of workload
// space where the protocol ranking flips (e.g. PSL loses 5x on
// read-heavy YCSB-B, where every replica read proxies to the primary,
// yet beats every tree protocol on partition-local TPC-C-lite; see
// docs/WORKLOADS.md §4 for the committed findings). Three grids:
//
//   1. Skew grid      — workload × θ ∈ {0, 0.8, 1.2} × protocol.
//   2. Site scaling   — workload × m ∈ {5, 9, 15} × protocol at θ=0.8.
//   3. Read-mix grid  — SmallBank Balance fraction × protocol at θ=0.8
//                       (YCSB covers its read axis via the A/B mixes).
//
// All runs share backedge_prob=0 so every protocol sees the same
// DAG-constrained placement family (BackEdge included, so the
// comparison isolates the propagation rule, not the copy graph). The
// headline per-cell costs are sim throughput and process-CPU
// microseconds per commit (getrusage, as in bench_multicore).
//
// JSON rows land in --json=PATH with bench="atlas_<workload>"; the
// committed atlas is BENCH_workloads.json at the repo root.

#include <sys/resource.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "workload/params.h"

namespace {

using namespace lazyrep;

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

constexpr core::Protocol kProtocols[] = {
    core::Protocol::kDagWt, core::Protocol::kDagT,
    core::Protocol::kBackEdge, core::Protocol::kPsl};

struct Cell {
  harness::AggregateResult result;
  double cpu_us_per_commit = 0;
};

Cell RunCell(core::SystemConfig config, const harness::BenchOptions& options) {
  Cell cell;
  double cpu_before = ProcessCpuSeconds();
  cell.result = harness::RunSeeds(config, options.seeds);
  double cpu_spent = ProcessCpuSeconds() - cpu_before;
  cell.cpu_us_per_commit =
      cell.result.committed > 0
          ? cpu_spent * 1e6 / static_cast<double>(cell.result.committed)
          : 0;
  return cell;
}

void EmitRow(const harness::BenchOptions& options,
             const core::SystemConfig& config, const Cell& cell,
             std::vector<std::pair<std::string, double>> params) {
  params.emplace_back("cpu_us_per_commit", cell.cpu_us_per_commit);
  harness::AppendBenchJson(
      options.json,
      std::string("atlas_") +
          workload::WorkloadKindName(config.workload.workload),
      core::ProtocolName(config.protocol), config.runtime, params, cell.result);
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);

  core::SystemConfig base = harness::PaperConfig(core::Protocol::kBackEdge);
  harness::ApplyOptions(options, &base);
  // One placement family for every protocol: no backedges, so the DAG
  // protocols and BackEdge run the exact same copy graphs.
  base.workload.backedge_prob = 0.0;
  if (!options.txns_set) {
    // 100+ cells; keep the full atlas inside a few minutes of sim time.
    base.workload.txns_per_thread = options.quick ? 40 : 120;
  }
  bench::PrintBanner(
      "workload crossover atlas: YCSB / SmallBank / TPC-C-lite "
      "x protocol x skew x sites (docs/WORKLOADS.md)",
      base, options);

  const std::vector<workload::WorkloadKind> kWorkloads = {
      workload::WorkloadKind::kYcsbA, workload::WorkloadKind::kYcsbB,
      workload::WorkloadKind::kSmallBank, workload::WorkloadKind::kTpccLite};

  // --- Grid 1: skew ---------------------------------------------------
  {
    harness::Table table({"workload", "theta", "protocol", "tps",
                          "cpu_us/commit", "abort%", "resp_ms", "msgs/txn",
                          "SR", "conv"},
                         options.csv);
    table.PrintHeader();
    for (workload::WorkloadKind kind : kWorkloads) {
      for (double theta : {0.0, 0.8, 1.2}) {
        for (core::Protocol protocol : kProtocols) {
          core::SystemConfig config = base;
          config.protocol = protocol;
          config.workload.workload = kind;
          config.workload.zipf_theta = theta;
          Cell cell = RunCell(config, options);
          EmitRow(options, config, cell,
                  {{"theta", theta},
                   {"sites", static_cast<double>(config.workload.num_sites)},
                   {"read_txn_prob", config.workload.read_txn_prob}});
          table.PrintRow({workload::WorkloadKindName(kind),
                          harness::Table::Num(theta, 1),
                          core::ProtocolName(protocol),
                          harness::Table::Num(cell.result.throughput),
                          harness::Table::Num(cell.cpu_us_per_commit),
                          harness::Table::Num(cell.result.abort_rate_pct),
                          harness::Table::Num(cell.result.response_ms),
                          harness::Table::Num(cell.result.messages_per_txn),
                          cell.result.all_serializable ? "yes" : "NO",
                          cell.result.all_converged ? "yes" : "NO"});
        }
      }
    }
  }

  // --- Grid 2: site scaling at θ=0.8 ----------------------------------
  if (!options.quick) {
    std::printf("\n# site scaling at theta=0.8\n");
    harness::Table table({"workload", "sites", "protocol", "tps",
                          "cpu_us/commit", "abort%", "msgs/txn", "SR",
                          "conv"},
                         options.csv);
    table.PrintHeader();
    for (workload::WorkloadKind kind : kWorkloads) {
      for (int sites : {5, 9, 15}) {
        for (core::Protocol protocol : kProtocols) {
          core::SystemConfig config = base;
          config.protocol = protocol;
          config.workload.workload = kind;
          config.workload.zipf_theta = 0.8;
          config.workload.num_sites = sites;
          // Keep items-per-warehouse (and accounts-per-site) constant
          // as sites grow, as TPC-C scales warehouses: n/m fixed at the
          // paper's 200/9 ≈ 22 items per site, rounded to TPC-C-lite's
          // floor of 8.
          config.workload.num_items = sites * (200 / 9);
          Cell cell = RunCell(config, options);
          EmitRow(options, config, cell,
                  {{"theta", 0.8},
                   {"sites", static_cast<double>(sites)},
                   {"read_txn_prob", config.workload.read_txn_prob}});
          table.PrintRow({workload::WorkloadKindName(kind),
                          std::to_string(sites), core::ProtocolName(protocol),
                          harness::Table::Num(cell.result.throughput),
                          harness::Table::Num(cell.cpu_us_per_commit),
                          harness::Table::Num(cell.result.abort_rate_pct),
                          harness::Table::Num(cell.result.messages_per_txn),
                          cell.result.all_serializable ? "yes" : "NO",
                          cell.result.all_converged ? "yes" : "NO"});
        }
      }
    }
  }

  // --- Grid 3: SmallBank read mix at θ=0.8 ----------------------------
  if (!options.quick) {
    std::printf("\n# smallbank balance-fraction sweep at theta=0.8\n");
    harness::Table table({"balance_frac", "protocol", "tps",
                          "cpu_us/commit", "abort%", "msgs/txn", "SR",
                          "conv"},
                         options.csv);
    table.PrintHeader();
    for (double balance : {0.2, 0.5, 0.8}) {
      for (core::Protocol protocol : kProtocols) {
        core::SystemConfig config = base;
        config.protocol = protocol;
        config.workload.workload = workload::WorkloadKind::kSmallBank;
        config.workload.zipf_theta = 0.8;
        config.workload.read_txn_prob = balance;
        Cell cell = RunCell(config, options);
        EmitRow(options, config, cell,
                {{"theta", 0.8},
                 {"sites", static_cast<double>(config.workload.num_sites)},
                 {"read_txn_prob", balance}});
        table.PrintRow({harness::Table::Num(balance, 1),
                        core::ProtocolName(protocol),
                        harness::Table::Num(cell.result.throughput),
                        harness::Table::Num(cell.cpu_us_per_commit),
                        harness::Table::Num(cell.result.abort_rate_pct),
                        harness::Table::Num(cell.result.messages_per_txn),
                        cell.result.all_serializable ? "yes" : "NO",
                        cell.result.all_converged ? "yes" : "NO"});
      }
    }
  }
  return 0;
}
