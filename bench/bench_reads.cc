// Secondary read serving: MVCC snapshot reads vs strict-2PL reads
// (docs/MVCC.md). Every site in the Breitbart et al. system is a
// secondary for most of the item space, so its read traffic is exactly
// the "read at a replica" load lazy propagation exists to serve. This
// bench measures what the lock-free snapshot path buys that traffic:
//
//   grid:  workload ∈ {YCSB-B, YCSB-C, SmallBank balance-heavy}
//          × workers-per-machine ∈ {1, 4}
//          × consistency ∈ {serializable, snapshot}
//
// DAG(WT) throughout (b=0), θ=0.8 skew, threads runtime (the workers
// axis needs real lanes). YCSB runs one op per request — the standard
// YCSB shape — so a 2PL read pays read_cpu + commit_cpu plus any
// S-lock wait behind writers and appliers, while a snapshot read pays
// snapshot_read_cpu and never touches the lock manager. SmallBank
// keeps its native multi-op transactions with an 80% Balance mix.
//
// Per (workload, workers) pair the bench reports both arms' read-only
// throughput measured directly (locked_read_* for the 2PL arm,
// read_* for the snapshot arm), p99 read latency, lock waits removed,
// watermark staleness, and the read-throughput speedup. JSON rows
// land in --json=PATH with bench="reads_<workload>"; the committed
// artifact is BENCH_reads.json at the repo root.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "storage/mvcc.h"
#include "workload/params.h"

namespace {

using namespace lazyrep;

struct WorkloadCase {
  workload::WorkloadKind kind;
  const char* label;
};

struct Arm {
  harness::AggregateResult result;
  /// Read-only throughput / p99 of this arm's own serving path.
  double read_tps = 0;
  double read_p99_ms = 0;
};

Arm RunArm(core::SystemConfig config, storage::ConsistencyLevel level,
           const harness::BenchOptions& options) {
  config.consistency = level;
  Arm arm;
  arm.result = harness::RunSeeds(config, options.seeds);
  if (level == storage::ConsistencyLevel::kSerializable) {
    arm.read_tps = arm.result.locked_read_throughput;
    arm.read_p99_ms = arm.result.locked_read_p99_ms;
  } else {
    arm.read_tps = arm.result.read_throughput;
    arm.read_p99_ms = arm.result.read_p99_ms;
  }
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);

  core::SystemConfig base = harness::PaperConfig(core::Protocol::kDagWt);
  // The workers axis needs real lanes: this bench always runs the
  // threads backend (metrics are wall-clock, like bench_multicore).
  base.runtime = runtime::RuntimeKind::kThreads;
  harness::ApplyOptions(options, &base);
  base.workload.backedge_prob = 0.0;
  base.workload.zipf_theta = 0.8;
  if (!options.txns_set) {
    // Wall-clock runs: keep each of the 12 cells inside a few seconds.
    base.workload.txns_per_thread = options.quick ? 40 : 150;
  }
  bench::PrintBanner(
      "secondary read serving: snapshot (MVCC) vs serializable (2PL) "
      "read-only throughput (docs/MVCC.md)",
      base, options);

  const std::vector<WorkloadCase> kCases = {
      {workload::WorkloadKind::kYcsbB, "ycsb_b"},
      {workload::WorkloadKind::kYcsbC, "ycsb_c"},
      {workload::WorkloadKind::kSmallBank, "smallbank"},
  };

  harness::Table table({"workload", "workers", "level", "tps", "read_tps",
                        "read_p99_ms", "lock_waits", "stale_ms", "speedup"},
                       options.csv);
  table.PrintHeader();
  for (const WorkloadCase& wc : kCases) {
    for (int workers : {1, 4}) {
      core::SystemConfig config = base;
      config.workload.workload = wc.kind;
      config.workers_per_site = workers;
      if (wc.kind == workload::WorkloadKind::kSmallBank) {
        // Balance-heavy SmallBank: 80% read-only Balance transactions,
        // native multi-op shapes.
        config.workload.read_txn_prob = 0.8;
      } else {
        // Standard YCSB issues each operation as its own request.
        config.workload.ops_per_txn = 1;
      }

      Arm ser = RunArm(config, storage::ConsistencyLevel::kSerializable,
                       options);
      Arm snap = RunArm(config, storage::ConsistencyLevel::kSnapshot,
                        options);
      double speedup =
          ser.read_tps > 0 ? snap.read_tps / ser.read_tps : 0;
      double waits_removed = ser.result.lock_waits - snap.result.lock_waits;

      const double w = static_cast<double>(workers);
      harness::AppendBenchJson(
          options.json, std::string("reads_") + wc.label,
          core::ProtocolName(config.protocol), config.runtime,
          {{"workers", w},
           {"theta", config.workload.zipf_theta},
           {"snapshot_level", 0}},
          ser.result);
      harness::AppendBenchJson(
          options.json, std::string("reads_") + wc.label,
          core::ProtocolName(config.protocol), config.runtime,
          {{"workers", w},
           {"theta", config.workload.zipf_theta},
           {"snapshot_level", 1},
           {"read_speedup", speedup},
           {"lock_waits_removed", waits_removed}},
          snap.result);

      for (const auto* arm : {&ser, &snap}) {
        bool is_snap = arm == &snap;
        table.PrintRow(
            {wc.label, std::to_string(workers),
             is_snap ? "snapshot" : "2pl",
             harness::Table::Num(arm->result.throughput),
             harness::Table::Num(arm->read_tps),
             harness::Table::Num(arm->read_p99_ms, 2),
             harness::Table::Num(arm->result.lock_waits),
             is_snap ? harness::Table::Num(arm->result.staleness_ms, 2)
                     : std::string("-"),
             is_snap ? harness::Table::Num(speedup, 2) + "x"
                     : std::string("-")});
      }
      if (!snap.result.all_snapshots_consistent) {
        std::printf("!! snapshot-consistency violation in %s workers=%d\n",
                    wc.label, workers);
        return 1;
      }
    }
  }
  return 0;
}
