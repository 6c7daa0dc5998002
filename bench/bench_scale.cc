// Scale-out benchmark (docs/SCALE.md): setup cost, per-commit CPU, and
// peak memory as the copy graph grows to 100+ sites.
//
// The paper evaluates m = 9; ROADMAP item 4 asks what the protocols do
// on deep chains, d-ary trees, wide fans, and backedge-dense random
// graphs at 100+ sites. The historical blockers were quadratic
// bookkeeping, not the protocols: dense endpoints² channel state in the
// network, per-site O(items) placement scans in system assembly, and
// parent-walk ancestor tests in routing. This bench pins the fix:
//
//   1. Site scaling — deep chain at m ∈ {9, 32, 64, 128} × protocol.
//      `setup_cpu_us` must grow ~linearly in m (it was quadratic) and
//      `setup_full_scans` must stay 0 (the one-pass placement indices).
//   2. Family atlas at m = 128 — chain / tree / fan / random, DAG
//      protocols on the acyclic families, BackEdge and PSL also on the
//      cyclic rand:128,0.10.
//
// `maxrss_mb` is the process-wide peak (getrusage ru_maxrss), so it is
// monotone across cells; cells run smallest-m first so growth per m is
// visible. JSON rows land in --json=PATH with bench="scale_<family>";
// the committed artifact is BENCH_scale.json at the repo root.

#include <sys/resource.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/copy_graph.h"
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

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

constexpr core::Protocol kProtocols[] = {
    core::Protocol::kDagWt, core::Protocol::kDagT,
    core::Protocol::kBackEdge, core::Protocol::kPsl};

struct Cell {
  harness::AggregateResult result;
  double cpu_us_per_commit = 0;
  double setup_cpu_us = 0;
  double setup_full_scans = 0;
  double maxrss_mb = 0;
};

Cell RunCell(core::SystemConfig config, const harness::BenchOptions& options) {
  Cell cell;
  // Setup cost, measured on a throwaway assembly: topology + placement
  // generation, routing, and per-site database construction — the part
  // that used to be quadratic in m. The scan counter proves assembly
  // uses the one-pass per-site indices.
  {
    const long scans_before = graph::Placement::FullScanCount();
    const double cpu_before = ProcessCpuSeconds();
    Result<std::unique_ptr<core::System>> system =
        core::System::Create(config);
    LAZYREP_CHECK(system.ok()) << system.status().ToString();
    cell.setup_cpu_us = (ProcessCpuSeconds() - cpu_before) * 1e6;
    cell.setup_full_scans = static_cast<double>(
        graph::Placement::FullScanCount() - scans_before);
  }
  const double cpu_before = ProcessCpuSeconds();
  cell.result = harness::RunSeeds(config, options.seeds);
  const double cpu_spent = ProcessCpuSeconds() - cpu_before;
  cell.cpu_us_per_commit =
      cell.result.committed > 0
          ? cpu_spent * 1e6 / static_cast<double>(cell.result.committed)
          : 0;
  cell.maxrss_mb = PeakRssMb();
  return cell;
}

std::string FamilyOf(const std::string& topology) {
  return topology.substr(0, topology.find(':'));
}

void EmitRow(const harness::BenchOptions& options,
             const core::SystemConfig& config, const std::string& topology,
             const Cell& cell) {
  harness::AppendBenchJson(
      options.json, "scale_" + FamilyOf(topology),
      core::ProtocolName(config.protocol), config.runtime,
      {{"sites", static_cast<double>(config.workload.num_sites)},
       {"items", static_cast<double>(config.workload.num_items)},
       {"rf", static_cast<double>(config.workload.replication_factor)},
       {"setup_cpu_us", cell.setup_cpu_us},
       {"setup_full_scans", cell.setup_full_scans},
       {"cpu_us_per_commit", cell.cpu_us_per_commit},
       {"maxrss_mb", cell.maxrss_mb}},
      cell.result);
}

void PrintCell(harness::Table& table, const std::string& topology,
               const core::SystemConfig& config, const Cell& cell) {
  table.PrintRow({topology, core::ProtocolName(config.protocol),
                  harness::Table::Num(cell.setup_cpu_us),
                  harness::Table::Num(cell.setup_full_scans, 0),
                  harness::Table::Num(cell.result.throughput),
                  harness::Table::Num(cell.cpu_us_per_commit),
                  harness::Table::Num(cell.result.messages_per_txn),
                  harness::Table::Num(cell.maxrss_mb),
                  cell.result.all_serializable ? "yes" : "NO",
                  cell.result.all_converged ? "yes" : "NO"});
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);

  core::SystemConfig base = harness::PaperConfig(core::Protocol::kDagT);
  harness::ApplyOptions(options, &base);
  if (!options.txns_set) {
    // Event counts scale with m; keep 128-site cells inside seconds.
    base.workload.txns_per_thread = options.quick ? 10 : 40;
  }
  bench::PrintBanner(
      "scale-out: setup cost, per-commit CPU and peak memory on "
      "100+ site topologies (docs/SCALE.md)",
      base, options);

  const std::vector<int> kSites =
      options.quick ? std::vector<int>{9, 32} : std::vector<int>{9, 32, 64,
                                                                 128};
  const char* kHeader[] = {"topology",      "protocol", "setup_us",
                           "setup_scans",   "tps",      "cpu_us/commit",
                           "msgs/txn",      "maxrss_mb", "SR",
                           "conv"};

  // --- Grid 1: deep-chain site scaling --------------------------------
  {
    harness::Table table(
        std::vector<std::string>(kHeader, kHeader + 10), options.csv);
    table.PrintHeader();
    for (int sites : kSites) {
      const std::string topology = "chain:" + std::to_string(sites);
      for (core::Protocol protocol : kProtocols) {
        core::SystemConfig config = base;
        config.protocol = protocol;
        config.workload.topology = topology;
        harness::ApplyTopology(&config.workload);
        Cell cell = RunCell(config, options);
        EmitRow(options, config, topology, cell);
        PrintCell(table, topology, config, cell);
      }
    }
  }

  // --- Grid 2: topology families at the largest m ---------------------
  {
    const int m = kSites.back();
    std::printf("\n# topology families at m=%d\n", m);
    harness::Table table(
        std::vector<std::string>(kHeader, kHeader + 10), options.csv);
    table.PrintHeader();
    const std::string n = std::to_string(m);
    struct FamilyCase {
      std::string topology;
      bool cyclic;
    };
    const std::vector<FamilyCase> kFamilies = {
        {"tree:" + n + ",4", false},
        {"fan:" + n, false},
        {"rand:" + n + ",0", false},
        {"rand:" + n + ",0.10", true},  // BackEdge / PSL only.
    };
    for (const FamilyCase& family : kFamilies) {
      for (core::Protocol protocol : kProtocols) {
        if (family.cyclic && (protocol == core::Protocol::kDagWt ||
                              protocol == core::Protocol::kDagT)) {
          continue;  // DAG protocols need an acyclic copy graph.
        }
        core::SystemConfig config = base;
        config.protocol = protocol;
        config.workload.topology = family.topology;
        harness::ApplyTopology(&config.workload);
        Cell cell = RunCell(config, options);
        EmitRow(options, config, family.topology, cell);
        PrintCell(table, family.topology, config, cell);
      }
    }
  }
  return 0;
}
