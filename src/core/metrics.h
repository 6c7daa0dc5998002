#ifndef LAZYREP_CORE_METRICS_H_
#define LAZYREP_CORE_METRICS_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "common/types.h"

namespace lazyrep::core {

/// Per-site slice of the run metrics.
struct SiteMetrics {
  SiteId site = kInvalidSite;
  int64_t committed = 0;
  int64_t aborted = 0;
  double throughput = 0;  // Committed per second at this site.
};

/// Final metrics of one run, in the units the paper reports.
struct RunMetrics {
  /// Average over sites of committed-primaries-per-second — the paper's
  /// "Average Throughput" (§5.3).
  double avg_site_throughput = 0;
  /// Percent of primary subtransactions that aborted — "Abort Rate".
  double abort_rate_pct = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  /// Response time of committed primary transactions (ms).
  Summary response_ms;
  /// Response-time percentiles (ms).
  double response_p50_ms = 0;
  double response_p95_ms = 0;
  double response_p99_ms = 0;
  /// Response-time distribution (ms, log buckets from 0.1 ms).
  LogHistogram response_histogram;
  /// Time from a primary's commit until its updates reached ALL replicas
  /// (ms) — §5.3.4's propagation recency metric.
  Summary propagation_delay_ms;
  /// Per-application propagation delay (each secondary site counted).
  Summary per_site_apply_delay_ms;
  uint64_t messages = 0;
  /// Wire bytes posted (per the core/wire.h encoding).
  uint64_t bytes = 0;
  /// Virtual time at which all worker threads had finished.
  Duration workload_elapsed = 0;
  /// Virtual time at which propagation fully drained.
  Duration drain_elapsed = 0;
  /// Serializability verdict (when checking was enabled).
  bool checked = false;
  bool serializable = true;
  std::string verdict;
  /// Value-level read-consistency verdict (when checking was enabled).
  bool reads_consistent = true;
  size_t reads_checked = 0;
  /// All replicas equal their primaries after drain (protocols that
  /// propagate values; PSL is exempt by design).
  bool converged = true;
  /// The safety time cap was hit before quiescence.
  bool timed_out = false;
  /// Lock-manager aggregates summed over sites.
  uint64_t lock_timeouts = 0;
  uint64_t lock_waits = 0;
  /// Wait-die victims (`DeadlockPolicy::kWaitDie` only) — counted apart
  /// from timeouts so prevention and detection aborts stay comparable.
  uint64_t lock_die_aborts = 0;
  /// --- MVCC snapshot-read metrics (zero under kSerializable) ---
  /// Read-only transactions served through the lock-free snapshot path.
  int64_t read_committed = 0;
  /// Snapshot reads per second, summed over sites.
  double read_throughput = 0;
  /// Snapshot-read response time (ms).
  Summary read_response_ms;
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  /// Snapshot staleness: age of the watermark each snapshot read (ms).
  Summary staleness_ms;
  /// Read-only transactions that committed on the strict-2PL path (all
  /// levels; under kSerializable this is every read-only commit). Lets
  /// the read-serving benches compare per-arm read throughput directly.
  int64_t locked_read_committed = 0;
  double locked_read_throughput = 0;
  Summary locked_read_response_ms;
  double locked_read_p99_ms = 0;
  /// Snapshot-consistency verdict (when checking was enabled).
  bool snapshots_consistent = true;
  size_t snapshots_checked = 0;
  size_t snapshot_reads_checked = 0;
  /// MVCC garbage collection aggregates summed over sites.
  int64_t gc_reclaimed = 0;
  int64_t gc_passes = 0;
  /// Per-site breakdown.
  std::vector<SiteMetrics> per_site;

  std::string ToString() const;
};

/// Collects per-site counters and propagation bookkeeping during a run.
///
/// Sites on every machine report here, so the collector is internally
/// synchronized (one mutex; uncontended under the sim backend). The
/// read accessors also lock: under `ThreadRuntime` the census thread
/// polls `pending_propagations()` while appliers are still reporting.
class MetricsCollector {
 public:
  explicit MetricsCollector(int num_sites)
      : committed_(num_sites, 0),
        aborted_(num_sites, 0),
        read_committed_(num_sites, 0),
        locked_read_committed_(num_sites, 0) {}

  void OnPrimaryCommit(SiteId site, Duration response) {
    std::lock_guard<std::mutex> lock(mu_);
    ++committed_[site];
    response_ms_.Add(ToMillis(response));
    response_percentiles_.Add(ToMillis(response));
    response_histogram_.Add(ToMillis(response));
  }
  void OnPrimaryAbort(SiteId site) {
    std::lock_guard<std::mutex> lock(mu_);
    ++aborted_[site];
  }

  /// A read-only transaction finished through the MVCC snapshot path.
  void OnReadCommit(SiteId site, Duration response) {
    std::lock_guard<std::mutex> lock(mu_);
    ++read_committed_[site];
    read_response_ms_.Add(ToMillis(response));
    read_percentiles_.Add(ToMillis(response));
  }

  /// A read-only transaction committed through strict 2PL (its response
  /// includes every S-lock wait it suffered behind writers).
  void OnLockedReadCommit(SiteId site, Duration response) {
    std::lock_guard<std::mutex> lock(mu_);
    ++locked_read_committed_[site];
    locked_read_response_ms_.Add(ToMillis(response));
    locked_read_percentiles_.Add(ToMillis(response));
  }

  /// Age of the stable watermark a snapshot read was served at.
  void OnSnapshotStaleness(SiteId /*site*/, Duration staleness) {
    std::lock_guard<std::mutex> lock(mu_);
    staleness_ms_.Add(ToMillis(staleness));
  }

  /// Registers a committed primary whose updates must reach
  /// `expected_sites` secondary sites.
  void RegisterPropagation(const GlobalTxnId& origin, int expected_sites,
                           SimTime commit_time) {
    if (expected_sites <= 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    pending_[origin] = {expected_sites, commit_time};
  }

  /// One secondary application of `origin`'s updates finished at `now`.
  void OnSecondaryApplied(const GlobalTxnId& origin, SimTime now) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(origin);
    if (it == pending_.end()) return;
    per_site_apply_ms_.Add(ToMillis(now - it->second.commit_time));
    if (--it->second.remaining == 0) {
      full_propagation_ms_.Add(ToMillis(now - it->second.commit_time));
      pending_.erase(it);
    }
  }

  size_t pending_propagations() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }
  int64_t committed_at(SiteId s) const {
    std::lock_guard<std::mutex> lock(mu_);
    return committed_[s];
  }
  int64_t aborted_at(SiteId s) const {
    std::lock_guard<std::mutex> lock(mu_);
    return aborted_[s];
  }
  int64_t read_committed_at(SiteId s) const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_committed_[s];
  }
  int64_t total_committed() const;
  int64_t total_aborted() const;
  int64_t total_read_committed() const;
  int64_t total_locked_read_committed() const;
  // Snapshot accessors: by value, copied under the mutex. Returning
  // references here would race with writers under `ThreadRuntime` (the
  // fields are mutated while appliers are still reporting).
  Summary response_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return response_ms_;
  }
  PercentileTracker response_percentiles() const {
    std::lock_guard<std::mutex> lock(mu_);
    return response_percentiles_;
  }
  LogHistogram response_histogram() const {
    std::lock_guard<std::mutex> lock(mu_);
    return response_histogram_;
  }
  Summary full_propagation_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return full_propagation_ms_;
  }
  Summary per_site_apply_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return per_site_apply_ms_;
  }
  Summary read_response_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_response_ms_;
  }
  PercentileTracker read_percentiles() const {
    std::lock_guard<std::mutex> lock(mu_);
    return read_percentiles_;
  }
  Summary staleness_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return staleness_ms_;
  }
  Summary locked_read_response_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return locked_read_response_ms_;
  }
  PercentileTracker locked_read_percentiles() const {
    std::lock_guard<std::mutex> lock(mu_);
    return locked_read_percentiles_;
  }
  int num_sites() const { return static_cast<int>(committed_.size()); }

 private:
  struct Pending {
    int remaining = 0;
    SimTime commit_time = 0;
  };
  mutable std::mutex mu_;
  std::vector<int64_t> committed_;
  std::vector<int64_t> aborted_;
  std::vector<int64_t> read_committed_;
  std::vector<int64_t> locked_read_committed_;
  Summary locked_read_response_ms_;
  PercentileTracker locked_read_percentiles_;
  Summary read_response_ms_;
  PercentileTracker read_percentiles_;
  Summary staleness_ms_;
  Summary response_ms_;
  PercentileTracker response_percentiles_;
  LogHistogram response_histogram_;
  Summary full_propagation_ms_;
  Summary per_site_apply_ms_;
  std::map<GlobalTxnId, Pending> pending_;
};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_METRICS_H_
