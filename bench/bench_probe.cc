// Internal calibration probe (not a paper figure): prints detailed
// lock/latency breakdowns for one configuration. Useful when tuning the
// cost model; kept out of the default bench set.

#include <cstdio>

#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace lazyrep;
  harness::BenchOptions options = harness::ParseBenchArgs(argc, argv);
  core::SystemConfig config =
      harness::PaperConfig(core::Protocol::kBackEdge);
  harness::ApplyOptions(options, &config);
  config.workload.backedge_prob = 0.0;

  auto system = core::System::Create(config);
  LAZYREP_CHECK(system.ok());
  core::System& sys = **system;
  core::RunMetrics m = sys.Run();
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
    const auto& stats = sys.database(s).locks().stats();
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
  return 0;
}
