#ifndef LAZYBENCH_WORKLOADS_H_
#define LAZYBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

namespace lazybench {

/// One named benchmark workload. Later changes cite workloads by `name`.
struct Workload {
  std::string name;
  /// Why the workload exists: the layers it stresses and what it bypasses.
  std::string why;
  /// Threads runtime with the real-cost profile (the implementation's own
  /// CPU bounds throughput); false = sim runtime with the paper's cost
  /// model, where wall time measures the simulator itself.
  bool threads = false;
  /// Transactions per client coroutine in one rep of a 10-second run.
  int txns_per_client = 0;
  /// Propagation is paced by timers (retransmission, epochs), not by the
  /// CPU: the drain-bound metrics are not scaled to the reference host
  /// speed (see ScaleToReferenceSpeed).
  bool timer_paced = false;
  /// `PaperConfig` plus the workload's changes, before seeding and sizing.
  lazyrep::core::SystemConfig (*base_config)() = nullptr;
};

/// The four workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& Workloads();

/// Null when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

/// The system configuration of one rep: `PaperConfig` plus the workload's
/// changes, with transactions and faults drawn from `seed` and the copy
/// placement from a fixed seed. `scale` multiplies the rep's size
/// (`--seconds` / 10 for runs, 1/20 for smoke runs).
lazyrep::core::SystemConfig MakeConfig(const Workload& workload,
                                       uint64_t seed, double scale);

/// Client transactions one rep of `config` submits (sites x clients x txns).
int64_t ClientTxns(const lazyrep::core::SystemConfig& config);

}  // namespace lazybench

#endif  // LAZYBENCH_WORKLOADS_H_
