#ifndef LAZYREP_HARNESS_EXPERIMENT_H_
#define LAZYREP_HARNESS_EXPERIMENT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "harness/flags.h"

namespace lazyrep::harness {

/// A SystemConfig pre-loaded with the paper's Table 1 defaults and the
/// calibrated cost model (see DESIGN.md §5 / EXPERIMENTS.md).
core::SystemConfig PaperConfig(core::Protocol protocol);

/// Aggregated results of one configuration over several seeds.
struct AggregateResult {
  double throughput = 0;        // txn/s per site, mean over seeds.
  double throughput_sd = 0;     // Across-seed standard deviation.
  double abort_rate_pct = 0;
  double response_ms = 0;
  double response_p95_ms = 0;
  double propagation_ms = 0;
  double messages_per_txn = 0;
  double bytes_per_message = 0;  // Wire bytes per network message, mean.
  int64_t committed = 0;
  /// MVCC snapshot-read aggregates (zero under kSerializable).
  double read_throughput = 0;   // Snapshot reads/s per site, mean.
  double read_p99_ms = 0;       // Snapshot-read p99 latency, mean.
  double staleness_ms = 0;      // Mean snapshot staleness.
  double lock_waits = 0;        // Lock-manager waits per run, mean.
  int64_t read_committed = 0;
  /// Read-only commits on the strict-2PL path (nonzero at every level;
  /// under kSerializable this is ALL read-only commits).
  double locked_read_throughput = 0;  // 2PL read-only txns/s per site.
  double locked_read_p99_ms = 0;      // 2PL read-only p99 latency, mean.
  int64_t locked_read_committed = 0;
  /// The runs' verdicts were checked (`RunMetrics::checked`); when not,
  /// the `all_*` verdicts below are vacuously true.
  bool checked = false;
  bool all_serializable = true;
  bool all_converged = true;
  bool all_snapshots_consistent = true;
  /// Some run hit the simulation-time safety cap (the configuration is
  /// saturated and cannot finish its workload).
  bool saturated = false;
  int runs = 0;
};

/// Runs `config` once per seed (seeds 1..num_seeds scaled into the config
/// seed space) and aggregates. Exits 2 with the reason if the system
/// rejects the config; CHECK-fails (unless `allow_timeout`) if a run hits
/// the simulation time cap.
AggregateResult RunSeeds(core::SystemConfig config, int num_seeds,
                         bool allow_timeout = false);

/// Command-line options shared by all bench binaries.
struct BenchOptions {
  /// Transactions per thread (default trimmed from the paper's 1000 to
  /// keep a full sweep under a minute; pass --full for 1000).
  int txns_per_thread = 300;
  int seeds = 3;
  bool quick = false;  // --quick: 100 txns, 1 seed.
  bool csv = false;    // --csv: machine-readable output for plotting.
  /// --txns/--quick/--full was passed explicitly (benches that pick their
  /// own scale, e.g. under the threads runtime, respect an explicit ask).
  bool txns_set = false;
  /// --json=<path>: append one JSON line per result row (see
  /// `AppendBenchJson`). Empty disables.
  std::string json;
  /// --metrics-out=PATH: write a Prometheus text snapshot of the metrics
  /// registry after each run (the file holds the last completed run).
  /// Empty disables.
  std::string metrics_out;
  /// --trace-out=PATH: enable tracing and write a Chrome trace_event JSON
  /// timeline after each run (last run wins). Empty disables.
  std::string trace_out;
  /// The shared config flags (--runtime, --workers, --lock-stripes,
  /// --deadlock, --lock-timeout, --zipf, --workload, --consistency,
  /// --topology, --replication-factor) parsed over
  /// PaperConfig(kBackEdge). `ApplyOptions` re-applies the ones that
  /// differ from it to each bench's base config.
  core::SystemConfig config;

  BenchOptions();
};

/// The benches' flag table: their own flags plus the shared config flags.
std::vector<Flag<BenchOptions>> BenchFlags();

/// Parses the bench command line over a bench's own `extra` flags plus
/// `BenchFlags()`. --help prints the flags and exits 0; an unknown flag or
/// a bad value prints the error and exits 2.
BenchOptions ParseBenchArgs(int argc, char** argv,
                            std::vector<Flag<BenchOptions>> extra = {});

/// Applies the options to a bench's base config: the transaction count,
/// then every shared flag that was set, then the --topology derivation.
/// Exits 2 with the reason when `core::Validate` rejects the result.
void ApplyOptions(const BenchOptions& options, core::SystemConfig* config);

/// Appends one JSON object line to `path` — the machine-readable
/// counterpart of a printed table row:
///
///   {"bench":"fig2a","protocol":"BackEdge","runtime":"sim","b":0.3,
///    "throughput":...,"abort_rate_pct":...,"response_ms":...,...}
///
/// `params` carries the swept parameters (emitted as numbers). No-op when
/// `path` is empty; CHECK-fails if the file cannot be opened.
void AppendBenchJson(const std::string& path, const std::string& bench,
                     const std::string& protocol,
                     runtime::RuntimeKind runtime_kind,
                     const std::vector<std::pair<std::string, double>>& params,
                     const AggregateResult& result);

/// Fixed-width table writer for paper-style result rows; in CSV mode it
/// emits comma-separated lines instead.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, bool csv = false);

  /// Prints the header row (call once).
  void PrintHeader() const;

  /// Prints one row; `cells.size()` must equal the header count.
  void PrintRow(const std::vector<std::string>& cells) const;

  static std::string Num(double v, int decimals = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<size_t> widths_;
  bool csv_ = false;
};

}  // namespace lazyrep::harness

#endif  // LAZYREP_HARNESS_EXPERIMENT_H_
