// Worker-scaling sweep: the same 4-site BackEdge workload on one
// machine with 1, 2, and 4 worker lanes, under a 1-stripe (single
// global mutex) and an 8-stripe lock table.
//
// On a single-core container wall-clock throughput cannot show lane
// parallelism (docs/PERFORMANCE.md §4), so the headline column is
// per-event CPU: process CPU time (getrusage, user+sys) divided by
// committed transactions. Striping pays off as flat-or-falling CPU per
// commit as lanes grow, where the single mutex pays serialization and
// cache-line bouncing on every acquire/release.

#include <sys/resource.h>

#include "bench/bench_common.h"

namespace {

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lazyrep;
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);

  core::SystemConfig base = harness::PaperConfig(core::Protocol::kBackEdge);
  // Worker lanes only exist under the threads runtime; sim rejects
  // workers_per_site > 1 to keep goldens byte-stable.
  base.runtime = runtime::RuntimeKind::kThreads;
  harness::ApplyOptions(options, &base);
  base.workload.num_sites = 4;
  base.workload.sites_per_machine = 4;  // One machine; lanes do the work.
  base.workload.threads_per_site = 2;
  if (!options.txns_set) {
    // Threads runs pay real milliseconds per transaction; keep the
    // 6-configuration sweep under a couple of minutes by default.
    base.workload.txns_per_thread = options.quick ? 5 : 30;
  }
  bench::PrintBanner(
      "worker scaling: per-event CPU vs worker lanes "
      "(4 sites on 1 machine, BackEdge, 1 vs 8 lock stripes)",
      base, options);

  harness::Table table({"stripes", "workers", "tps", "speedup",
                        "cpu_us/commit", "abort%", "SR", "converged"},
                       options.csv);
  table.PrintHeader();
  for (int stripes : {1, 8}) {
    double base_tps = 0;
    for (int workers : {1, 2, 4}) {
      core::SystemConfig config = base;
      config.engine.lock_stripes = stripes;
      config.workers_per_site = workers;
      double cpu_before = ProcessCpuSeconds();
      harness::AggregateResult result =
          harness::RunSeeds(config, options.seeds);
      double cpu_spent = ProcessCpuSeconds() - cpu_before;
      double cpu_us_per_commit =
          result.committed > 0
              ? cpu_spent * 1e6 / static_cast<double>(result.committed)
              : 0;
      if (base_tps == 0) base_tps = result.throughput;
      double speedup = base_tps > 0 ? result.throughput / base_tps : 0;
      harness::AppendBenchJson(
          options.json, "multicore_workers", "BackEdge", config.runtime,
          {{"lock_stripes", static_cast<double>(stripes)},
           {"workers", static_cast<double>(workers)},
           {"speedup", speedup},
           {"cpu_us_per_commit", cpu_us_per_commit}},
          result);
      table.PrintRow({std::to_string(stripes), std::to_string(workers),
                      harness::Table::Num(result.throughput),
                      harness::Table::Num(speedup),
                      harness::Table::Num(cpu_us_per_commit),
                      harness::Table::Num(result.abort_rate_pct),
                      result.all_serializable ? "yes" : "NO",
                      result.all_converged ? "yes" : "NO"});
    }
  }
  return 0;
}
