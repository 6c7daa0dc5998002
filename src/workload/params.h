#ifndef LAZYREP_WORKLOAD_PARAMS_H_
#define LAZYREP_WORKLOAD_PARAMS_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/sim_time.h"

namespace lazyrep::workload {

/// Which transaction generator drives the run (docs/WORKLOADS.md).
/// kTable1 is the paper's §5.2 synthetic loop; the rest are the
/// standard-benchmark suite mapped onto the local-primary model.
enum class WorkloadKind {
  kTable1 = 0,
  kYcsbA,      // 50% read / 50% update
  kYcsbB,      // 95% read / 5% update
  kYcsbC,      // 100% read
  kYcsbD,      // 95% read / 5% update, read-latest bias
  kYcsbE,      // 95% scan (multi-read) / 5% update
  kYcsbF,      // 50% read / 50% read-modify-write
  kSmallBank,  // 6 txn types over (checking, savings) account pairs
  kTpccLite,   // New-Order + Payment over warehouse/district/customer
};

/// Canonical CLI token for a workload kind ("table1", "ycsb_a", ...).
const char* WorkloadKindName(WorkloadKind kind);

/// Parses a workload token; accepts '-' for '_' and "tpcc" for
/// "tpcc_lite".
Result<WorkloadKind> ParseWorkloadKind(const std::string& name);

/// The experimental parameters of Table 1, with the paper's default
/// values. One instance fully describes data distribution, transaction
/// mix and load for a run.
struct Params {
  /// Number of sites `m` (default 9; the paper ran 3 DataBlitz instances
  /// on each of 3 machines).
  int num_sites = 9;
  /// Sites co-located per machine (shared CPU).
  int sites_per_machine = 3;
  /// Number of distinct items `n` (primaries, not counting replicas).
  int num_items = 200;
  /// Fraction `r` of a site's primary items that are replicated.
  double replication_prob = 0.2;
  /// Probability `s` that a candidate site receives a replica.
  double site_prob = 0.5;
  /// Probability `b` that replicas of an item may be placed at *all*
  /// sites (potentially creating backedges) rather than only at sites
  /// after the primary in the total order.
  double backedge_prob = 0.2;
  /// Operations per transaction.
  int ops_per_txn = 10;
  /// Concurrent threads per site (multiprogramming level).
  int threads_per_site = 3;
  /// Transactions each thread runs back-to-back.
  int txns_per_thread = 1000;
  /// Fraction of operations that are reads, within non-read-only
  /// transactions.
  double read_op_prob = 0.7;
  /// Probability that a transaction is read-only. SmallBank reuses this
  /// as the Balance (read-only) fraction.
  double read_txn_prob = 0.5;
  /// One-way network latency (the paper measured ~0.15 ms).
  Duration network_latency = Millis(0.15);
  /// Lock-wait timeout used to break (local and global) deadlocks.
  Duration deadlock_timeout = Millis(50);
  /// Access skew: item hotness is Zipf-distributed with this exponent,
  /// P(item) ∝ 1/(hot_rank(item)+1)^θ where hot_rank is one seeded
  /// *global* permutation of the item space (same hotness at every site
  /// holding a copy, decorrelated from the primary assignment).
  /// 0 = uniform, the paper's setting; >0 is an extension ablation.
  double zipf_theta = 0.0;
  /// Which generator drives the run (docs/WORKLOADS.md).
  WorkloadKind workload = WorkloadKind::kTable1;
  /// Seed of the global hotness permutation. Deliberately independent of
  /// the run seed so placements and schedules can vary while the hot set
  /// stays fixed (and vice versa).
  uint64_t hot_rank_seed = 1;
  /// YCSB-E: maximum scan length (consecutive locally-readable items).
  int ycsb_scan_len = 8;
  /// TPC-C-lite: probability that a New-Order includes remote-warehouse
  /// stock legs / a Payment targets a remote customer. Remote legs read
  /// locally-held replicas (writes stay on local primaries; see
  /// docs/WORKLOADS.md on the mapping).
  double remote_txn_prob = 0.1;
  /// Generated-topology override (docs/SCALE.md). Empty = the paper's
  /// §5.2 placement machinery. "chain:N", "tree:N,d", "fan:N", or
  /// "rand:N,density" replaces it with a copy-graph skeleton of that
  /// shape and a per-item sharded placement (each site holds only a
  /// keyspace fraction); the site count N overrides num_sites.
  std::string topology;
  /// Copies per item (primary included) under a generated topology;
  /// clipped per item by how many sites the primary's skeleton
  /// out-paths reach. Ignored when `topology` is empty.
  int replication_factor = 2;

  /// Human-readable one-line summary. Non-default extension fields
  /// (workload, zipf, hot seed, scan len, remote prob) are appended so
  /// bench JSON rows and lazychk replay lines fully describe the config.
  std::string ToString() const;

  bool operator==(const Params&) const = default;
};

}  // namespace lazyrep::workload

#endif  // LAZYREP_WORKLOAD_PARAMS_H_
