#include "harness/experiment.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/check.h"
#include "common/stats.h"
#include "common/strings.h"
#include "obs/chrome_trace.h"
#include "obs/prometheus.h"

namespace lazyrep::harness {

namespace {

/// Bench observability outputs (--metrics-out / --trace-out). Set once by
/// `ParseBenchArgs`, consumed by `RunSeeds` — threading them through every
/// bench's call sites would churn all the sweep loops for a debug-only
/// feature. Each run rewrites the files, so they hold the last run.
std::string g_metrics_out;
std::string g_trace_out;

void WriteObsOutputs(core::System& system) {
  if (!g_metrics_out.empty()) {
    std::ofstream out(g_metrics_out);
    LAZYREP_CHECK(out.good()) << "cannot open " << g_metrics_out;
    obs::WritePrometheus(system.obs_registry(), out);
  }
  if (!g_trace_out.empty() && system.trace() != nullptr) {
    std::ofstream out(g_trace_out);
    LAZYREP_CHECK(out.good()) << "cannot open " << g_trace_out;
    obs::WriteChromeTrace(*system.trace(), out);
  }
}

}  // namespace

core::SystemConfig PaperConfig(core::Protocol protocol) {
  core::SystemConfig config;
  config.protocol = protocol;
  // workload::Params defaults are Table 1's defaults already.
  // Cost model calibration (EXPERIMENTS.md): 1999-era per-message CPU
  // dominates the wire; storage ops tens of microseconds; 3 sites share
  // each machine CPU.
  config.costs.model_cpu = true;
  config.check_serializability = true;
  config.max_sim_time = Seconds(3600);
  return config;
}

AggregateResult RunSeeds(core::SystemConfig config, int num_seeds,
                         bool allow_timeout) {
  LAZYREP_CHECK_GT(num_seeds, 0);
  AggregateResult out;
  Summary throughput;
  Summary abort_rate;
  Summary response;
  Summary response_p95;
  Summary propagation;
  Summary msgs_per_txn;
  Summary bytes_per_message;
  Summary read_throughput;
  Summary read_p99;
  Summary staleness;
  Summary lock_waits;
  Summary locked_read_throughput;
  Summary locked_read_p99;
  const int num_sites = std::max(1, config.workload.num_sites);
  for (int i = 0; i < num_seeds; ++i) {
    core::SystemConfig run_config = config;
    run_config.seed = config.seed + 7919u * static_cast<uint64_t>(i);
    if (!g_trace_out.empty()) run_config.enable_trace = true;
    Result<std::unique_ptr<core::System>> system =
        core::System::Create(std::move(run_config));
    if (!system.ok()) std::exit(UsageError(system.status()));
    // Re-arm the runtime clock so time between Create and Run is not
    // billed to the run. A no-op on a fresh simulator (its clock starts
    // at zero); under the threads backend the wall clock has already been
    // ticking through system assembly.
    (*system)->runtime().Reset();
    core::RunMetrics metrics = (*system)->Run();
    WriteObsOutputs(**system);
    if (metrics.timed_out) {
      LAZYREP_CHECK(allow_timeout) << "run hit the simulation time cap";
      out.saturated = true;
      continue;
    }
    throughput.Add(metrics.avg_site_throughput);
    abort_rate.Add(metrics.abort_rate_pct);
    response.Add(metrics.response_ms.mean());
    response_p95.Add(metrics.response_p95_ms);
    propagation.Add(metrics.propagation_delay_ms.mean());
    int64_t attempts = metrics.committed + metrics.aborted;
    msgs_per_txn.Add(attempts > 0 ? static_cast<double>(metrics.messages) /
                                        static_cast<double>(attempts)
                                  : 0.0);
    bytes_per_message.Add(
        static_cast<double>(metrics.bytes) /
        static_cast<double>(std::max<uint64_t>(metrics.messages, 1)));
    out.committed += metrics.committed;
    out.read_committed += metrics.read_committed;
    read_throughput.Add(metrics.read_throughput /
                        static_cast<double>(num_sites));
    read_p99.Add(metrics.read_p99_ms);
    staleness.Add(metrics.staleness_ms.mean());
    lock_waits.Add(static_cast<double>(metrics.lock_waits));
    out.locked_read_committed += metrics.locked_read_committed;
    locked_read_throughput.Add(metrics.locked_read_throughput /
                               static_cast<double>(num_sites));
    locked_read_p99.Add(metrics.locked_read_p99_ms);
    out.all_serializable &= (!metrics.checked || metrics.serializable);
    out.all_converged &= metrics.converged;
    out.all_snapshots_consistent &=
        (!metrics.checked || metrics.snapshots_consistent);
    ++out.runs;
  }
  out.throughput = throughput.mean();
  out.throughput_sd = throughput.stddev();
  out.abort_rate_pct = abort_rate.mean();
  out.response_ms = response.mean();
  out.response_p95_ms = response_p95.mean();
  out.propagation_ms = propagation.mean();
  out.messages_per_txn = msgs_per_txn.mean();
  out.bytes_per_message = bytes_per_message.mean();
  out.read_throughput = read_throughput.mean();
  out.read_p99_ms = read_p99.mean();
  out.staleness_ms = staleness.mean();
  out.lock_waits = lock_waits.mean();
  out.locked_read_throughput = locked_read_throughput.mean();
  out.locked_read_p99_ms = locked_read_p99.mean();
  return out;
}

BenchOptions::BenchOptions()
    : config(PaperConfig(core::Protocol::kBackEdge)) {}

namespace {

std::vector<Flag<core::SystemConfig>> BenchConfigFlags() {
  return ConfigFlags({"runtime", "workers", "lock-stripes", "deadlock",
                      "timeout-ms", "zipf", "workload", "consistency",
                      "topology", "replication-factor"});
}

}  // namespace

std::vector<Flag<BenchOptions>> BenchFlags() {
  using Rendered = std::optional<std::string>;
  // --quick and --full set the scale; --txns and --seeds carry it when a
  // command line is rendered back.
  auto scale = [](std::string name, std::string help, int txns, int seeds,
                  bool quick) {
    return Flag<BenchOptions>{std::move(name), "", "", std::move(help),
                              [=](const std::string&, BenchOptions* o) {
                                o->txns_per_thread = txns;
                                o->seeds = seeds;
                                o->quick |= quick;
                                o->txns_set = true;
                                return Status::OK();
                              },
                              [=](const BenchOptions& o) -> Rendered {
                                if (!quick || !o.quick) return std::nullopt;
                                return "";
                              }};
  };
  std::vector<Flag<BenchOptions>> flags = {
      scale("quick", "smoke scale: 100 txns/thread, 1 seed", 100, 1, true),
      scale("full", "the paper's scale: 1000 txns/thread, 3 seeds", 1000, 3,
            false),
      {"txns", "", "N", "transactions per thread",
       [](const std::string& v, BenchOptions* o) {
         o->txns_set = true;
         return ParseInt(v, 0, &o->txns_per_thread);
       },
       [](const BenchOptions& o) -> Rendered {
         return std::to_string(o.txns_per_thread);
       }},
      IntFlag("seeds", "seeds averaged per point", &BenchOptions::seeds, 1),
      SwitchFlag("csv", "machine-readable output for plotting",
                 &BenchOptions::csv),
      PathFlag("json", "append one JSON line per result row",
               &BenchOptions::json),
      PathFlag("metrics-out", "Prometheus snapshot of the last run",
               &BenchOptions::metrics_out),
      PathFlag("trace-out", "Chrome trace_event timeline of the last run",
               &BenchOptions::trace_out),
  };
  for (Flag<BenchOptions>& f :
       OnMember(BenchConfigFlags(), &BenchOptions::config)) {
    flags.push_back(std::move(f));
  }
  return flags;
}

BenchOptions ParseBenchArgs(int argc, char** argv,
                            std::vector<Flag<BenchOptions>> extra) {
  std::vector<Flag<BenchOptions>> flags = std::move(extra);
  for (Flag<BenchOptions>& f : BenchFlags()) flags.push_back(std::move(f));
  BenchOptions options;
  if (std::optional<int> exit_code = HandleCommandLine(
          argc, argv,
          std::string(argv[0]) + " — lazyrep bench\n\n" +
              FlagHelp(flags, options),
          [&](const std::vector<std::string>& args) {
            return ParseFlags(flags, args, &options);
          })) {
    std::exit(*exit_code);
  }
  g_metrics_out = options.metrics_out;
  g_trace_out = options.trace_out;
  return options;
}

void ApplyOptions(const BenchOptions& options, core::SystemConfig* config) {
  config->workload.txns_per_thread = options.txns_per_thread;
  const std::vector<Flag<core::SystemConfig>> flags = BenchConfigFlags();
  Status status = ParseFlags(
      flags, RenderFlags(flags, options.config, BenchOptions().config),
      config);
  LAZYREP_CHECK(status.ok()) << status.ToString();
  ApplyTopology(&config->workload);
  status = core::Validate(*config);
  if (!status.ok()) std::exit(UsageError(status));
}

void AppendBenchJson(const std::string& path, const std::string& bench,
                     const std::string& protocol,
                     runtime::RuntimeKind runtime_kind,
                     const std::vector<std::pair<std::string, double>>& params,
                     const AggregateResult& result) {
  if (path.empty()) return;
  std::string line = StrPrintf(
      "{\"bench\":\"%s\",\"protocol\":\"%s\",\"runtime\":\"%s\"",
      bench.c_str(), protocol.c_str(), runtime::RuntimeKindName(runtime_kind));
  for (const auto& [key, value] : params) {
    line += StrPrintf(",\"%s\":%g", key.c_str(), value);
  }
  line += StrPrintf(
      ",\"throughput\":%g,\"throughput_sd\":%g,\"abort_rate_pct\":%g"
      ",\"response_ms\":%g,\"response_p95_ms\":%g,\"propagation_ms\":%g"
      ",\"messages_per_txn\":%g,\"committed\":%lld,\"runs\":%d",
      result.throughput, result.throughput_sd, result.abort_rate_pct,
      result.response_ms, result.response_p95_ms, result.propagation_ms,
      result.messages_per_txn, static_cast<long long>(result.committed),
      result.runs);
  if (result.read_committed > 0) {
    // MVCC snapshot-read columns, emitted only when the run served any
    // (keeps the serializable benches' lines unchanged).
    line += StrPrintf(
        ",\"read_throughput\":%g,\"read_p99_ms\":%g,\"staleness_ms\":%g"
        ",\"read_committed\":%lld,\"snapshots_consistent\":%s",
        result.read_throughput, result.read_p99_ms, result.staleness_ms,
        static_cast<long long>(result.read_committed),
        result.all_snapshots_consistent ? "true" : "false");
  }
  if (result.locked_read_committed > 0) {
    // 2PL read-only columns (nonzero at every level): what the snapshot
    // path's read_throughput is compared against.
    line += StrPrintf(
        ",\"locked_read_throughput\":%g,\"locked_read_p99_ms\":%g"
        ",\"locked_read_committed\":%lld",
        result.locked_read_throughput, result.locked_read_p99_ms,
        static_cast<long long>(result.locked_read_committed));
  }
  line += StrPrintf(
      ",\"lock_waits\":%g,\"serializable\":%s,\"converged\":%s"
      ",\"saturated\":%s}",
      result.lock_waits, result.all_serializable ? "true" : "false",
      result.all_converged ? "true" : "false",
      result.saturated ? "true" : "false");
  std::FILE* f = std::fopen(path.c_str(), "a");
  LAZYREP_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "%s\n", line.c_str());
  std::fclose(f);
}

Table::Table(std::vector<std::string> headers, bool csv)
    : headers_(std::move(headers)), csv_(csv) {
  for (const std::string& h : headers_) {
    widths_.push_back(std::max<size_t>(h.size() + 2, 12));
  }
}

void Table::PrintHeader() const {
  if (csv_) {
    std::printf("%s\n", StrJoin(headers_, ",").c_str());
    return;
  }
  std::string line;
  for (size_t i = 0; i < headers_.size(); ++i) {
    line += StrPrintf("%-*s", static_cast<int>(widths_[i]),
                      headers_[i].c_str());
  }
  std::printf("%s\n", line.c_str());
  std::printf("%s\n", std::string(line.size(), '-').c_str());
}

void Table::PrintRow(const std::vector<std::string>& cells) const {
  LAZYREP_CHECK_EQ(cells.size(), headers_.size());
  if (csv_) {
    std::printf("%s\n", StrJoin(cells, ",").c_str());
    std::fflush(stdout);
    return;
  }
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    line += StrPrintf("%-*s", static_cast<int>(widths_[i]),
                      cells[i].c_str());
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::string Table::Num(double v, int decimals) {
  return StrPrintf("%.*f", decimals, v);
}

}  // namespace lazyrep::harness
