// lazyrep_cli — run one simulated experiment from command-line flags and
// print the paper's metrics. The flag names mirror Table 1.
//
//   $ lazyrep_cli --protocol=backedge --sites=9 --items=200 --r=0.2
//                 --b=0.2 --threads=3 --txns=1000 --seed=1   (one line)
//
// Run with --help for the full list.

#include <cstdio>
#include <fstream>
#include <string>

#include "core/system.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "obs/chrome_trace.h"
#include "obs/prometheus.h"

using namespace lazyrep;

namespace {

// A verdict line's value: a run with checking off has none.
const char* Verdict(bool checked, bool ok) {
  if (!checked) return "unchecked";
  return ok ? "yes" : "NO";
}

}  // namespace

int main(int argc, char** argv) {
  harness::CliOptions options;
  if (std::optional<int> exit_code = harness::HandleCommandLine(
          argc, argv,
          "lazyrep_cli — Breitbart et al. (SIGMOD 1999) replication "
          "simulator\n\n" +
              harness::FlagHelp(harness::CliFlags(), options),
          [&](const std::vector<std::string>& args) {
            return harness::ParseCliArgs(args, &options);
          })) {
    return *exit_code;
  }
  const core::SystemConfig& config = options.config;

  std::printf("# %s | %s | seed=%llu seeds=%d runtime=%s\n",
              core::ProtocolName(config.protocol).c_str(),
              config.workload.ToString().c_str(),
              static_cast<unsigned long long>(config.seed), options.seeds,
              runtime::RuntimeKindName(config.runtime));

  // Flags and Validate passed; assembly can still reject the placement
  // (a DAG protocol on a cyclic copy graph).
  {
    Result<std::unique_ptr<core::System>> probe =
        core::System::Create(config);
    if (!probe.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
  }

  // Outputs that describe one concrete run (histograms, per-site tables,
  // traces, metric snapshots) don't mix with seed averaging: run once.
  const bool single_run =
      options.histogram || options.per_site || !options.trace_path.empty() ||
      !options.metrics_out.empty() || !options.trace_out.empty();
  if (single_run) {
    auto system = core::System::Create(config);
    LAZYREP_CHECK(system.ok());
    core::RunMetrics metrics = (*system)->Run();
    if (!options.metrics_out.empty()) {
      std::ofstream out(options.metrics_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", options.metrics_out.c_str());
        return 1;
      }
      obs::WritePrometheus((*system)->obs_registry(), out);
      std::printf("metrics: %s\n", options.metrics_out.c_str());
    }
    if (!options.trace_out.empty()) {
      std::ofstream out(options.trace_out);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", options.trace_out.c_str());
        return 1;
      }
      obs::WriteChromeTrace(*(*system)->trace(), out);
      std::printf("trace_event: %zu events -> %s%s\n",
                  (*system)->trace()->size(), options.trace_out.c_str(),
                  (*system)->trace()->truncated() ? " (truncated)" : "");
    }
    if (!options.trace_path.empty()) {
      std::ofstream out(options.trace_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s\n", options.trace_path.c_str());
        return 1;
      }
      (*system)->trace()->WriteJsonl(out);
      std::printf("trace: %zu events -> %s%s\n",
                  (*system)->trace()->size(), options.trace_path.c_str(),
                  (*system)->trace()->truncated() ? " (truncated)" : "");
    }
    if (options.histogram) {
      std::printf("response time distribution (ms):\n%s",
                  metrics.response_histogram.ToString().c_str());
      std::printf("p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
                  metrics.response_p50_ms, metrics.response_p95_ms,
                  metrics.response_p99_ms, metrics.response_ms.max());
    }
    if (options.per_site) {
      std::printf("%-6s %-12s %-10s %-12s\n", "site", "committed",
                  "aborted", "txn/s");
      for (const core::SiteMetrics& s : metrics.per_site) {
        std::printf("%-6d %-12lld %-10lld %-12.2f\n", s.site,
                    static_cast<long long>(s.committed),
                    static_cast<long long>(s.aborted), s.throughput);
      }
    }
    std::printf("throughput      %.2f txn/s per site\n",
                metrics.avg_site_throughput);
    if (metrics.read_committed > 0) {
      std::printf("snapshot reads  %lld (p99 %.2f ms, staleness %.2f ms, "
                  "consistent %s)\n",
                  static_cast<long long>(metrics.read_committed),
                  metrics.read_p99_ms, metrics.staleness_ms.mean(),
                  Verdict(metrics.checked, metrics.snapshots_consistent));
    }
    std::printf("serializable    %s\n",
                Verdict(metrics.checked, metrics.serializable));
    return metrics.serializable && metrics.snapshots_consistent ? 0 : 1;
  }

  harness::AggregateResult result = harness::RunSeeds(config, options.seeds);
  std::printf("throughput      %.2f txn/s per site (sd %.2f over seeds)\n",
              result.throughput, result.throughput_sd);
  std::printf("abort rate      %.2f %%\n", result.abort_rate_pct);
  std::printf("response        %.2f ms mean, %.2f ms p95\n",
              result.response_ms, result.response_p95_ms);
  std::printf("propagation     %.2f ms to all replicas\n",
              result.propagation_ms);
  std::printf("messages        %.2f per transaction\n",
              result.messages_per_txn);
  std::printf("bytes           %.2f per message\n",
              result.bytes_per_message);
  std::printf("committed       %lld over %d run(s)\n",
              static_cast<long long>(result.committed), result.runs);
  if (result.read_committed > 0) {
    std::printf("snapshot reads  %.2f txn/s per site "
                "(p99 %.2f ms, staleness %.2f ms, consistent %s)\n",
                result.read_throughput, result.read_p99_ms,
                result.staleness_ms,
                Verdict(result.checked, result.all_snapshots_consistent));
  }
  std::printf("serializable    %s\n",
              Verdict(result.checked, result.all_serializable));
  std::printf("converged       %s\n", result.all_converged ? "yes" : "NO");
  return result.all_serializable && result.all_snapshots_consistent ? 0 : 1;
}
