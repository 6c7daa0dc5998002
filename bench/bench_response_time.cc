// Reproduces the §5.3.4 text metrics at the Table 1 defaults:
//  * average response time of committed transactions — the paper reports
//    ≈180 ms for BackEdge vs ≈260 ms for PSL (ratio ≈ 0.7);
//  * update-propagation recency for BackEdge — "a few hundred millisec"
//    for a transaction's updates to reach all replicas.
// Absolute milliseconds differ from the 1999 testbed; the BackEdge/PSL
// response ratio and the propagation order-of-magnitude are the targets.

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace lazyrep;
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);

  core::SystemConfig base = harness::PaperConfig(core::Protocol::kBackEdge);
  harness::ApplyOptions(options, &base);
  bench::PrintBanner("Section 5.3.4: response time and propagation recency "
                     "(Table 1 defaults)",
                     base, options);

  harness::Table table({"protocol", "tps", "abort%", "response_ms",
                        "resp_p95_ms", "propagation_ms", "msgs/txn",
                        "SR"},
                       options.csv);
  table.PrintHeader();
  for (core::Protocol protocol :
       {core::Protocol::kBackEdge, core::Protocol::kPsl}) {
    core::SystemConfig config = base;
    config.protocol = protocol;
    harness::AggregateResult result =
        harness::RunSeeds(config, options.seeds);
    harness::AppendBenchJson(options.json, "response_time",
                             core::ProtocolName(protocol), config.runtime,
                             {}, result);
    table.PrintRow({core::ProtocolName(protocol),
                    harness::Table::Num(result.throughput),
                    harness::Table::Num(result.abort_rate_pct),
                    harness::Table::Num(result.response_ms),
                    harness::Table::Num(result.response_p95_ms),
                    protocol == core::Protocol::kPsl
                        ? "n/a"
                        : harness::Table::Num(result.propagation_ms),
                    harness::Table::Num(result.messages_per_txn),
                    result.all_serializable ? "yes" : "NO"});
  }
  return 0;
}
