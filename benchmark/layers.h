#ifndef LAZYBENCH_LAYERS_H_
#define LAZYBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/system.h"
#include "workloads.h"

namespace lazybench {

/// A declared metric: its name (as in BENCHMARK.json) and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported with tracing off (median of the
/// measured reps).
const std::vector<MetricDef>& EndToEndMetrics();

/// The per-layer metrics, reported with tracing on: first the
/// whole-system values measured like the end-to-end metrics but too noisy
/// to bound, then those of the traced rep, each name starting with its
/// layer (`lock.`, `db.`, ... ; README.md maps them to modules).
const std::vector<MetricDef>& LayerMetrics();

/// Metric name -> value.
using MetricValues = std::map<std::string, double>;

/// What one rep measured around the program's public calls.
struct RepMeasure {
  double setup_s = 0;  // Wall time of System::Create.
  double run_s = 0;    // Wall time of System::Run.
  double cpu_s = 0;    // Process user+sys CPU across System::Run.
  lazyrep::core::RunMetrics metrics;
};

/// Client transactions the rep committed: 2PL primaries plus lock-free
/// snapshot reads (every client request, since aborts are retried).
int64_t CommittedTxns(const lazyrep::core::RunMetrics& m);

/// What one untraced rep measured, as measured: the end-to-end metrics
/// (peak RSS excepted: a process-wide figure, read once) and the
/// whole-system per-layer metrics.
MetricValues UntracedValuesOf(const RepMeasure& rep);

/// Scales the values in `v` that the host's CPU speed bounds to the
/// reference speed, given the host's `slowdown` (how many times slower
/// than on a quiet host it ran): times divide by it, rates multiply. Values in
/// virtual time (RunMetrics under the sim), memory, and the drain-bound
/// values of a timer-paced workload stay as measured.
void ScaleToReferenceSpeed(double slowdown, const Workload& workload,
                           MetricValues* v);

/// The ledger's verdict on its own closure.
struct LedgerCheck {
  /// Names of (R) layers whose replay measured no work (a threads
  /// workload with a missing layer fails the run).
  std::vector<std::string> missing;
  /// Attributed cost exceeds the measured CPU: the isolated replays
  /// overstate in-situ cost (flagged, not fatal; see README.md).
  bool negative_unattributed = false;
};

/// The per-layer metrics of `system` after its traced rep `rep`: counts
/// (C) read from public state, spans (S) timed around lazybench's own
/// re-invocations, and replays (R) of the rep's operations through each
/// layer's public API on fresh objects. The ledger splits
/// `untraced_cpu_us_per_txn`, the median of the untraced reps as
/// measured. Workload-specific diagnostics that are not declared metrics
/// (e.g. snapshot staleness, transport ack RTT) go to `extras`.
MetricValues CollectLayers(const Workload& workload,
                           lazyrep::core::System& system,
                           const RepMeasure& rep,
                           double untraced_cpu_us_per_txn, LedgerCheck* check,
                           MetricValues* extras);

}  // namespace lazybench

#endif  // LAZYBENCH_LAYERS_H_
