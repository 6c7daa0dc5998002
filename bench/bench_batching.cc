// Batching sweep (docs/PERFORMANCE.md §6): transport frame coalescing,
// ack piggybacking and WAL group commit across the three lazy tree
// protocols on the default Table-1 workload.
//
// The baseline arm routes traffic through the same reliable-transport
// layer with every batching knob off (`force_transport`), so the
// comparison isolates batching itself rather than transport overhead.
// Headline columns, all normalized per committed transaction:
//
//   frames/txn     first-transmission data+batch frames on the wire
//   acks/txn       standalone ChannelAck frames (piggybacked ones ride
//                  data frames for free)
//   syncs/txn      WAL sync boundaries (the fsync stand-in) across sites
//
// Each batched arm runs with piggybacking and group commit on; the
// window is the swept dial. Serializability and convergence are checked
// on every run — batching buys nothing if it breaks the protocol.

#include <string>

#include "bench/bench_common.h"

namespace {

using namespace lazyrep;

struct ArmResult {
  double tps = 0;
  double frames_per_txn = 0;
  double acks_per_txn = 0;
  double syncs_per_txn = 0;
  double batch_frames = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  bool all_serializable = true;
  bool all_converged = true;
  int runs = 0;
};

ArmResult RunArm(core::SystemConfig base, int seeds) {
  ArmResult arm;
  uint64_t frames = 0;
  uint64_t acks = 0;
  uint64_t batch_frames = 0;
  uint64_t syncs = 0;
  for (int i = 0; i < seeds; ++i) {
    core::SystemConfig config = base;
    config.seed = static_cast<uint64_t>(i) + 1;
    auto system = core::System::Create(config);
    LAZYREP_CHECK(system.ok()) << system.status().ToString();
    core::System& sys = **system;
    core::RunMetrics m = sys.Run();
    LAZYREP_CHECK(!m.timed_out) << "run saturated; shrink the workload";
    arm.tps += m.avg_site_throughput;
    arm.committed += m.committed;
    arm.aborted += m.aborted;
    arm.all_serializable = arm.all_serializable && m.serializable;
    arm.all_converged = arm.all_converged && m.converged;
    LAZYREP_CHECK(sys.transport() != nullptr);
    frames += sys.transport()->frames_sent();
    acks += sys.transport()->acks_standalone();
    batch_frames += sys.transport()->batch_frames_sent();
    for (SiteId s = 0; s < config.workload.num_sites; ++s) {
      if (sys.database(s).wal() != nullptr) {
        syncs += sys.database(s).wal()->sync_batches();
      }
    }
    ++arm.runs;
  }
  arm.tps /= seeds;
  const double committed = static_cast<double>(arm.committed);
  if (committed > 0) {
    arm.frames_per_txn = static_cast<double>(frames) / committed;
    arm.acks_per_txn = static_cast<double>(acks) / committed;
    arm.syncs_per_txn = static_cast<double>(syncs) / committed;
    arm.batch_frames = static_cast<double>(batch_frames) / committed;
  }
  return arm;
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);

  harness::Table table({"protocol", "window_ms", "tps", "frames/txn",
                        "acks/txn", "syncs/txn", "batch_frames/txn", "SR",
                        "converged"},
                       options.csv);
  bool printed_banner = false;
  for (core::Protocol protocol :
       {core::Protocol::kDagWt, core::Protocol::kDagT,
        core::Protocol::kBackEdge}) {
    core::SystemConfig base = harness::PaperConfig(protocol);
    harness::ApplyOptions(options, &base);
    base.enable_wal = true;  // syncs/txn needs a log in both arms.
    if (protocol != core::Protocol::kBackEdge) {
      base.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
    }
    if (!printed_banner) {
      bench::PrintBanner(
          "batching: frames, standalone acks and WAL syncs per committed "
          "transaction vs batch window (baseline = same transport, "
          "batching off)",
          base, options);
      table.PrintHeader();
      printed_banner = true;
    }
    for (double window_ms : {0.0, 1.0, 5.0, 20.0}) {
      core::SystemConfig config = base;
      if (window_ms == 0.0) {
        config.batching.force_transport = true;  // Baseline arm.
      } else {
        config.batching.window = Millis(window_ms);
        config.batching.piggyback_acks = true;
        config.batching.wal_group_commit = true;
      }
      ArmResult arm = RunArm(config, options.seeds);

      // AppendBenchJson consumes an AggregateResult; fill the fields this
      // bench actually measures and carry the batching counters as params.
      harness::AggregateResult result;
      result.throughput = arm.tps;
      result.committed = arm.committed;
      result.abort_rate_pct =
          arm.committed + arm.aborted > 0
              ? 100.0 * static_cast<double>(arm.aborted) /
                    static_cast<double>(arm.committed + arm.aborted)
              : 0.0;
      result.all_serializable = arm.all_serializable;
      result.all_converged = arm.all_converged;
      result.runs = arm.runs;
      harness::AppendBenchJson(
          options.json, "batching", core::ProtocolName(protocol),
          base.runtime,
          {{"window_ms", window_ms},
           {"frames_per_txn", arm.frames_per_txn},
           {"acks_per_txn", arm.acks_per_txn},
           {"wal_syncs_per_txn", arm.syncs_per_txn},
           {"batch_frames_per_txn", arm.batch_frames}},
          result);
      table.PrintRow({core::ProtocolName(protocol),
                      harness::Table::Num(window_ms, 0),
                      harness::Table::Num(arm.tps),
                      harness::Table::Num(arm.frames_per_txn),
                      harness::Table::Num(arm.acks_per_txn),
                      harness::Table::Num(arm.syncs_per_txn),
                      harness::Table::Num(arm.batch_frames),
                      arm.all_serializable ? "yes" : "NO",
                      arm.all_converged ? "yes" : "NO"});
    }
  }
  return 0;
}
