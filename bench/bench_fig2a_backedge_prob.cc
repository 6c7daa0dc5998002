// Reproduces Figure 2(a): average per-site throughput of the BackEdge and
// PSL protocols as the backedge probability `b` is varied from 0 to 1
// with all other parameters at their Table 1 defaults. Also prints the
// abort-rate trend discussed in §5.3.1.
//
// Paper shape: BackEdge ≈ 3x PSL at b=0, declining as b grows (more
// backedge subtransactions -> longer lock holds -> global deadlocks),
// but still above PSL at b=1. PSL is nearly flat with a slight decline.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace lazyrep;
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);

  core::SystemConfig base = harness::PaperConfig(core::Protocol::kBackEdge);
  harness::ApplyOptions(options, &base);
  bench::PrintBanner(
      "Figure 2(a): throughput vs backedge probability (BackEdge vs PSL)",
      base, options);

  harness::Table table({"b", "BackEdge_tps", "PSL_tps", "BE_abort%",
                        "PSL_abort%", "BE_msgs/txn", "PSL_msgs/txn",
                        "BE_SR", "PSL_SR"},
                       options.csv);
  table.PrintHeader();
  for (double b : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
                   1.0}) {
    core::SystemConfig be = base;
    be.protocol = core::Protocol::kBackEdge;
    be.workload.backedge_prob = b;
    harness::AggregateResult be_result =
        harness::RunSeeds(be, options.seeds);

    core::SystemConfig psl = base;
    psl.protocol = core::Protocol::kPsl;
    psl.workload.backedge_prob = b;
    harness::AggregateResult psl_result =
        harness::RunSeeds(psl, options.seeds);

    harness::AppendBenchJson(options.json, "fig2a", "BackEdge",
                             base.runtime, {{"backedge_prob", b}},
                             be_result);
    harness::AppendBenchJson(options.json, "fig2a", "PSL", base.runtime,
                             {{"backedge_prob", b}}, psl_result);
    table.PrintRow({harness::Table::Num(b, 1),
                    harness::Table::Num(be_result.throughput),
                    harness::Table::Num(psl_result.throughput),
                    harness::Table::Num(be_result.abort_rate_pct),
                    harness::Table::Num(psl_result.abort_rate_pct),
                    harness::Table::Num(be_result.messages_per_txn),
                    harness::Table::Num(psl_result.messages_per_txn),
                    be_result.all_serializable ? "yes" : "NO",
                    psl_result.all_serializable ? "yes" : "NO"});
  }
  return 0;
}
