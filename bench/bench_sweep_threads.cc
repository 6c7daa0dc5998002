// Table 1 lists 1-5 threads per site as the explored multiprogramming
// range (full sweep in [BKRSS98]): throughput of BackEdge and PSL as the
// per-site thread count grows. Expected shape: throughput rises with
// moderate multiprogramming, then contention (lock waits, deadlock
// timeouts) flattens or reverses it; BackEdge stays ahead.

#include "bench/bench_common.h"

namespace {

// Machine-scaling mode (--runtime=threads): the same 4-site BackEdge
// workload placed on 1, 2, and 4 machines (sites_per_machine 4 -> 1).
// Under the threads backend each machine is an OS thread and a CPU
// charge occupies its machine's CPU for real time, so splitting the
// sites across more machines must raise measured throughput (>1x from
// 1 to 4 machines) — that is the parallelism the backend exists to
// demonstrate.
int RunMachineScaling(const lazyrep::harness::BenchOptions& options,
                      lazyrep::core::SystemConfig base) {
  using namespace lazyrep;
  base.workload.num_sites = 4;
  base.workload.threads_per_site = 2;
  if (!options.txns_set) {
    // Wall-clock runs pay real milliseconds per transaction; keep the
    // default sweep under a minute.
    base.workload.txns_per_thread = 30;
  }
  bench::PrintBanner(
      "threads-runtime scaling: measured throughput vs machines "
      "(4 sites, BackEdge)",
      base, options);

  harness::Table table({"machines", "sites/machine", "tps", "speedup",
                        "abort%", "SR", "converged"},
                       options.csv);
  table.PrintHeader();
  double base_tps = 0;
  for (int spm : {4, 2, 1}) {
    core::SystemConfig config = base;
    config.workload.sites_per_machine = spm;
    int machines = (config.workload.num_sites + spm - 1) / spm;
    harness::AggregateResult result =
        harness::RunSeeds(config, options.seeds);
    if (base_tps == 0) base_tps = result.throughput;
    double speedup = base_tps > 0 ? result.throughput / base_tps : 0;
    harness::AppendBenchJson(
        options.json, "sweep_threads_scaling", "BackEdge", config.runtime,
        {{"machines", static_cast<double>(machines)},
         {"sites_per_machine", static_cast<double>(spm)},
         {"speedup", speedup}},
        result);
    table.PrintRow({std::to_string(machines), std::to_string(spm),
                    harness::Table::Num(result.throughput),
                    harness::Table::Num(speedup),
                    harness::Table::Num(result.abort_rate_pct),
                    result.all_serializable ? "yes" : "NO",
                    result.all_converged ? "yes" : "NO"});
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lazyrep;
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);
  core::SystemConfig base = harness::PaperConfig(core::Protocol::kBackEdge);
  harness::ApplyOptions(options, &base);
  if (base.runtime == runtime::RuntimeKind::kThreads) {
    return RunMachineScaling(options, base);
  }
  bench::PrintBanner(
      "[BKRSS98] sweep: throughput vs threads per site (multiprogramming)",
      base, options);

  harness::Table table({"threads", "BackEdge_tps", "PSL_tps", "BE_abort%",
                        "PSL_abort%", "BE_resp_ms", "PSL_resp_ms"},
                       options.csv);
  table.PrintHeader();
  for (int threads : {1, 2, 3, 4, 5}) {
    core::SystemConfig be = base;
    be.protocol = core::Protocol::kBackEdge;
    be.workload.threads_per_site = threads;
    harness::AggregateResult be_result =
        harness::RunSeeds(be, options.seeds);

    core::SystemConfig psl = base;
    psl.protocol = core::Protocol::kPsl;
    psl.workload.threads_per_site = threads;
    harness::AggregateResult psl_result =
        harness::RunSeeds(psl, options.seeds);

    harness::AppendBenchJson(
        options.json, "sweep_threads", "BackEdge", base.runtime,
        {{"threads", static_cast<double>(threads)}}, be_result);
    harness::AppendBenchJson(
        options.json, "sweep_threads", "PSL", base.runtime,
        {{"threads", static_cast<double>(threads)}}, psl_result);

    table.PrintRow({std::to_string(threads),
                    harness::Table::Num(be_result.throughput),
                    harness::Table::Num(psl_result.throughput),
                    harness::Table::Num(be_result.abort_rate_pct),
                    harness::Table::Num(psl_result.abort_rate_pct),
                    harness::Table::Num(be_result.response_ms),
                    harness::Table::Num(psl_result.response_ms)});
  }
  return 0;
}
