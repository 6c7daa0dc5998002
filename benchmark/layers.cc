#include "layers.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/history.h"
#include "core/messages.h"
#include "core/wire.h"
#include "net/network.h"
#include "obs/registry.h"
#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "storage/item_store.h"
#include "storage/lock_manager.h"
#include "storage/mvcc.h"
#include "storage/wal.h"
#include "workload/suite.h"

namespace lazybench {

namespace core = lazyrep::core;
namespace obs = lazyrep::obs;
namespace runtime = lazyrep::runtime;
namespace storage = lazyrep::storage;
using lazyrep::ItemId;
using lazyrep::SiteId;
using lazyrep::Value;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"attempts_per_txn", "count"},
      {"net_bytes_per_txn", "B"},
  };
  return defs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = {
      // Whole-system candidates for end-to-end metrics whose run-to-run
      // spread on the reference host exceeded the 10% bound (README.md):
      // medians of the untraced reps, scaled to the reference host speed.
      {"run_s", "s"},
      {"replicated_tps", "txn/s"},
      {"commit_p50_us", "us"},
      {"commit_p99_us", "us"},
      {"propagation_ms", "ms"},
      {"cpu_us_per_txn", "us"},
      {"read_tps", "reads/s"},
      {"read_p99_us", "us"},
      // storage.lock
      {"lock.ns_per_txn", "ns"},
      {"lock.waits_per_txn", "count"},
      {"lock.timeouts_per_txn", "count"},
      // storage.db
      {"db.ns_per_txn", "ns"},
      // storage.mvcc
      {"mvcc.read_ns", "ns"},
      {"mvcc.publish_ns", "ns"},
      {"mvcc.reads_per_txn", "count"},
      {"mvcc.gc_passes_per_ktxn", "count"},
      {"mvcc.chain_len_p99", "count"},
      // storage.wal
      {"wal.ns_per_record", "ns"},
      {"wal.records_per_txn", "count"},
      {"wal.syncs_per_txn", "count"},
      {"wal.bytes_per_txn", "B"},
      // core.wire
      {"wire.ns_per_msg", "ns"},
      {"wire.bytes_per_msg", "B"},
      // net
      {"net.post_deliver_ns", "ns"},
      {"net.msgs_per_txn", "count"},
      {"net.inflight_peak", "count"},
      // fault.transport
      {"transport.retransmits_per_txn", "count"},
      {"transport.dups_discarded_per_txn", "count"},
      {"transport.window_peak", "count"},
      // core.engine
      {"engine.apply_lag_ms", "ms"},
      {"engine.queue_peak", "count"},
      {"engine.dummies_per_txn", "count"},
      {"engine.epoch_bumps_per_s", "1/s"},
      {"engine.backedge_txn_pct", "%"},
      // core.history
      {"history.records_per_txn", "count"},
      {"history.record_ns_per_txn", "ns"},
      {"history.check_s", "s"},
      // core.metrics
      {"metrics.ns_per_txn", "ns"},
      // workload
      {"workload.gen_ns_per_txn", "ns"},
      // runtime
      {"runtime.enqueue_ns", "ns"},
      {"runtime.enqueues_per_txn", "count"},
      // sim
      {"sim.event_ns", "ns"},
      {"sim.events_per_txn", "count"},
      // phase
      {"phase.workload_s", "s"},
      {"phase.drain_pct", "%"},
      {"phase.verdict_s", "s"},
      // ledger
      {"ledger.attributed_ns_per_txn", "ns"},
      {"ledger.unattributed_ns_per_txn", "ns"},
      {"ledger.trace_overhead_pct", "%"},
  };
  return defs;
}

int64_t CommittedTxns(const core::RunMetrics& m) {
  return m.committed + m.read_committed;
}

MetricValues UntracedValuesOf(const RepMeasure& rep) {
  const core::RunMetrics& m = rep.metrics;
  MetricValues v;
  v["setup_s"] = rep.setup_s;
  v["run_s"] = rep.run_s;
  // RunMetrics columns are in the runtime's clock: wall time under the
  // threads runtime, virtual time under the sim (deterministic per seed).
  v["replicated_tps"] = static_cast<double>(m.committed) /
                        lazyrep::ToSeconds(m.drain_elapsed);
  v["commit_p50_us"] = m.response_p50_ms * 1000.0;
  v["commit_p99_us"] = m.response_p99_ms * 1000.0;
  v["propagation_ms"] = m.propagation_delay_ms.mean();
  v["cpu_us_per_txn"] =
      rep.cpu_s * 1e6 / static_cast<double>(CommittedTxns(m));
  // Read-only requests, on whichever path serves them: lock-free
  // snapshots at the relaxed levels, strict 2PL otherwise.
  v["read_tps"] = m.read_throughput + m.locked_read_throughput;
  v["read_p99_us"] =
      (m.read_committed > 0 ? m.read_p99_ms : m.locked_read_p99_ms) * 1000.0;
  // Aborted attempts are retried until they commit: each one costs a
  // retry, so the abort share shows here (1 when nothing aborts).
  v["attempts_per_txn"] =
      static_cast<double>(CommittedTxns(m) + m.aborted) /
      static_cast<double>(CommittedTxns(m));
  v["net_bytes_per_txn"] =
      static_cast<double>(m.bytes) / static_cast<double>(CommittedTxns(m));
  return v;
}

void ScaleToReferenceSpeed(double slowdown, const Workload& workload,
                           MetricValues* v) {
  std::vector<const char*> times = {"setup_s", "cpu_us_per_txn"};
  std::vector<const char*> rates;
  if (workload.threads) {
    times.insert(times.end(),
                 {"commit_p50_us", "commit_p99_us", "read_p99_us"});
    rates.push_back("read_tps");
  }
  if (!workload.timer_paced) {
    times.push_back("run_s");
    if (workload.threads) {
      times.push_back("propagation_ms");
      rates.push_back("replicated_tps");
    }
  }
  for (const char* time : times) (*v)[time] /= slowdown;
  for (const char* rate : rates) (*v)[rate] *= slowdown;
}

namespace {

using Clock = std::chrono::steady_clock;
using Record = core::HistoryRecorder::Record;

double NanosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Replays store their results here so the optimizer keeps the work.
volatile uint64_t g_sink = 0;

/// Median of five repetitions of `run`, which returns the nanoseconds of
/// its own timed section (set-up of fresh objects stays outside it).
template <typename F>
double MedianOf5(F run) {
  double t[5] = {run(), run(), run(), run(), run()};
  std::sort(t, t + 5);
  return t[2];
}

/// The traced rep's committed work, split by path.
struct Ops {
  std::vector<const Record*> locked;     // 2PL commits, in record order.
  std::vector<const Record*> snapshots;  // Lock-free snapshot reads.
  int64_t locked_writes = 0;
  int64_t snapshot_reads = 0;
};

Ops PartitionRecords(const core::HistoryRecorder& history) {
  Ops ops;
  for (const Record& r : history.records()) {
    if (r.snapshot) {
      ops.snapshots.push_back(&r);
      ops.snapshot_reads += static_cast<int64_t>(r.reads.size());
    } else {
      ops.locked.push_back(&r);
      ops.locked_writes += static_cast<int64_t>(r.writes.size());
    }
  }
  return ops;
}

storage::TxnKind KindOf(const Record& r) {
  return r.origin.origin_site == r.site ? storage::TxnKind::kPrimary
                                        : storage::TxnKind::kSecondary;
}

Value FinalValue(const Record& r, ItemId item) {
  auto it = r.writes_final.find(item);
  return it == r.writes_final.end() ? 0 : it->second;
}

storage::LockManager::Config LockConfigOf(const core::SystemConfig& config) {
  storage::LockManager::Config lc;
  lc.wait_timeout = config.workload.deadlock_timeout;
  lc.policy = config.engine.deadlock_policy;
  lc.grant = config.engine.grant_policy;
  lc.stripes = config.engine.lock_stripes;
  return lc;
}

// ---- (C) helpers over the obs registry snapshot ---------------------------

const obs::MetricSnapshot* Family(const std::vector<obs::MetricSnapshot>& s,
                                  const std::string& name) {
  for (const obs::MetricSnapshot& f : s) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

double SumCells(const std::vector<obs::MetricSnapshot>& s,
                const std::string& name) {
  const obs::MetricSnapshot* f = Family(s, name);
  double sum = 0;
  if (f != nullptr) {
    for (const auto& cell : f->cells) sum += cell.value;
  }
  return sum;
}

double MaxCell(const std::vector<obs::MetricSnapshot>& s,
               const std::string& name) {
  const obs::MetricSnapshot* f = Family(s, name);
  double max = 0;
  if (f != nullptr) {
    for (const auto& cell : f->cells) max = std::max(max, cell.value);
  }
  return max;
}

/// Quantile `q` of a histogram family merged over its cells: the upper
/// edge of the log-2 bucket holding it (0 when empty).
double HistQuantile(const std::vector<obs::MetricSnapshot>& s,
                    const std::string& name, double q) {
  const obs::MetricSnapshot* f = Family(s, name);
  if (f == nullptr) return 0;
  std::vector<uint64_t> buckets;
  double base = 0;
  uint64_t count = 0;
  for (const auto& cell : f->cells) {
    if (!cell.hist.has_value()) continue;
    base = cell.hist->base;
    buckets.resize(std::max(buckets.size(), cell.hist->buckets.size()));
    for (size_t i = 0; i < cell.hist->buckets.size(); ++i) {
      buckets[i] += cell.hist->buckets[i];
    }
    count += cell.hist->count;
  }
  if (count == 0) return 0;
  const double target = q * static_cast<double>(count);
  uint64_t seen = 0;
  double edge = base;
  for (size_t i = 0; i < buckets.size(); ++i, edge *= 2) {
    seen += buckets[i];
    if (static_cast<double>(seen) >= target) return edge;
  }
  return edge;
}

/// Per-kind posted-message counts, keyed by the `kind` label.
std::vector<std::pair<std::string, uint64_t>> PostedByKind(
    const std::vector<obs::MetricSnapshot>& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  const obs::MetricSnapshot* f =
      Family(s, "lazyrep_net_messages_posted_total");
  if (f == nullptr) return out;
  for (const auto& cell : f->cells) {
    const std::string key = "kind=\"";
    size_t at = cell.labels.find(key);
    if (at == std::string::npos || cell.value <= 0) continue;
    size_t start = at + key.size();
    const size_t end = cell.labels.find('"', start);
    out.emplace_back(cell.labels.substr(start, end - start),
                     static_cast<uint64_t>(cell.value));
  }
  return out;
}

// ---- (R) replays ----------------------------------------------------------

runtime::Co<void> LockLoop(
    std::vector<std::unique_ptr<storage::LockManager>>* locks,
    const Ops* ops, std::vector<std::shared_ptr<storage::Transaction>>* txns) {
  for (size_t i = 0; i < ops->locked.size(); ++i) {
    const Record& r = *ops->locked[i];
    storage::LockManager& lm = *(*locks)[static_cast<size_t>(r.site)];
    storage::Transaction* txn = (*txns)[i].get();
    for (ItemId item : r.reads) {
      storage::LockOutcome o =
          co_await lm.Acquire(txn, item, storage::LockMode::kShared);
      LAZYREP_CHECK(o == storage::LockOutcome::kGranted);
    }
    for (ItemId item : r.writes) {
      storage::LockOutcome o =
          co_await lm.Acquire(txn, item, storage::LockMode::kExclusive);
      LAZYREP_CHECK(o == storage::LockOutcome::kGranted);
    }
    lm.ReleaseAll(txn);
  }
}

/// storage.lock: S locks on the read set, X on the write set, release —
/// one uncontended 2PL transaction at a time on fresh lock managers.
double ReplayLocks(const Ops& ops, const core::SystemConfig& config) {
  return MedianOf5([&] {
    runtime::SimRuntime rt;
    std::vector<std::unique_ptr<storage::LockManager>> locks;
    for (int s = 0; s < config.workload.num_sites; ++s) {
      locks.push_back(
          std::make_unique<storage::LockManager>(&rt, LockConfigOf(config)));
    }
    std::vector<std::shared_ptr<storage::Transaction>> txns;
    txns.reserve(ops.locked.size());
    for (size_t i = 0; i < ops.locked.size(); ++i) {
      const Record& r = *ops.locked[i];
      txns.push_back(std::make_shared<storage::Transaction>(
          r.origin, KindOf(r), 0, static_cast<int64_t>(i)));
    }
    Clock::time_point t0 = Clock::now();
    rt.Spawn(LockLoop(&locks, &ops, &txns));
    rt.simulator()->Run();
    return NanosSince(t0);
  });
}

runtime::Co<void> DbLoop(
    std::vector<std::unique_ptr<storage::Database>>* dbs, const Ops* ops) {
  for (const Record* r : ops->locked) {
    storage::Database& db = *(*dbs)[static_cast<size_t>(r->site)];
    storage::TxnPtr txn = db.Begin(r->origin, KindOf(*r));
    Value value = 0;
    for (ItemId item : r->reads) {
      lazyrep::Status st = co_await db.Read(txn, item, &value);
      LAZYREP_CHECK(st.ok()) << st.ToString();
    }
    for (ItemId item : r->writes) {
      lazyrep::Status st = co_await db.Write(txn, item, FinalValue(*r, item));
      LAZYREP_CHECK(st.ok()) << st.ToString();
    }
    lazyrep::Status st = co_await db.Commit(txn);
    LAZYREP_CHECK(st.ok()) << st.ToString();
  }
}

/// storage.db: Begin/Read/Write/Commit through fresh databases (WAL and
/// MVCC off — those layers are replayed on their own). The result
/// includes the lock calls Read/Write/Commit make; the caller subtracts
/// the lock replay to get the database's own cost.
double ReplayDatabase(const Ops& ops, const core::SystemConfig& config,
                      const std::vector<std::vector<ItemId>>& items_by_site) {
  return MedianOf5([&] {
    runtime::SimRuntime rt;
    std::vector<std::unique_ptr<storage::Database>> dbs;
    for (int s = 0; s < config.workload.num_sites; ++s) {
      storage::Database::Options options;
      options.site = s;
      options.lock_config = LockConfigOf(config);
      options.num_sites = config.workload.num_sites;
      dbs.push_back(std::make_unique<storage::Database>(&rt, options, nullptr,
                                                        nullptr));
      for (ItemId item : items_by_site[static_cast<size_t>(s)]) {
        dbs.back()->store().AddItem(item, 0);
      }
    }
    Clock::time_point t0 = Clock::now();
    rt.Spawn(DbLoop(&dbs, &ops));
    rt.simulator()->Run();
    return NanosSince(t0);
  });
}

struct MvccStores {
  std::vector<std::unique_ptr<storage::ItemStore>> stores;
  std::vector<std::unique_ptr<storage::SnapshotRegistry>> registries;
};

MvccStores FreshMvcc(const std::vector<std::vector<ItemId>>& items_by_site) {
  MvccStores out;
  for (const std::vector<ItemId>& items : items_by_site) {
    out.stores.push_back(std::make_unique<storage::ItemStore>());
    out.stores.back()->EnableVersioning();
    for (ItemId item : items) out.stores.back()->AddItem(item, 0);
    out.registries.push_back(std::make_unique<storage::SnapshotRegistry>());
  }
  return out;
}

/// Publishes every committed write as a version at its commit stamp, with
/// chain GC every `gc_interval` publications per site, as Commit does.
void PublishAll(const std::vector<const Record*>& by_commit_order,
                int gc_interval, MvccStores* mvcc) {
  std::vector<int> since_gc(mvcc->stores.size(), 0);
  for (const Record* r : by_commit_order) {
    const size_t s = static_cast<size_t>(r->site);
    const int64_t stamp = r->commit_seq + 1;
    for (const auto& [item, value] : r->writes_final) {
      mvcc->stores[s]->PublishVersion(item, value, stamp);
    }
    mvcc->registries[s]->Publish(stamp, 0);
    if (++since_gc[s] >= gc_interval) {
      since_gc[s] = 0;
      int64_t floor = mvcc->registries[s]->BeginGc();
      mvcc->stores[s]->PruneVersionsBelow(floor);
      mvcc->registries[s]->EndGc();
    }
  }
}

struct MvccCost {
  double publish_ns = 0;  // Per version published.
  double read_ns = 0;     // Per snapshot read.
};

/// storage.mvcc: version publication in commit order, then the snapshot
/// reads (the traced rep's own when it served any, else the read sets of
/// its read-only 2PL transactions) against the published chains.
MvccCost ReplayMvcc(const Ops& ops, const core::SystemConfig& config,
                    const std::vector<std::vector<ItemId>>& items_by_site) {
  std::vector<const Record*> ordered = ops.locked;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Record* a, const Record* b) {
                     return a->commit_seq < b->commit_seq;
                   });
  std::vector<const Record*> readers = ops.snapshots;
  if (readers.empty()) {
    for (const Record* r : ops.locked) {
      if (r->writes.empty() && !r->reads.empty()) readers.push_back(r);
    }
  }
  int64_t versions = 0;
  for (const Record* r : ordered) {
    versions += static_cast<int64_t>(r->writes_final.size());
  }
  int64_t reads = 0;
  for (const Record* r : readers) {
    reads += static_cast<int64_t>(r->reads.size());
  }

  MvccCost cost;
  cost.publish_ns = MedianOf5([&] {
    MvccStores mvcc = FreshMvcc(items_by_site);
    Clock::time_point t0 = Clock::now();
    PublishAll(ordered, config.mvcc_gc_interval, &mvcc);
    return NanosSince(t0);
  }) / static_cast<double>(std::max<int64_t>(versions, 1));
  cost.read_ns = MedianOf5([&] {
    MvccStores mvcc = FreshMvcc(items_by_site);
    PublishAll(ordered, config.mvcc_gc_interval, &mvcc);
    uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    for (const Record* r : readers) {
      const size_t s = static_cast<size_t>(r->site);
      storage::SnapshotHandle handle = mvcc.registries[s]->Acquire();
      for (ItemId item : r->reads) {
        lazyrep::Result<Value> v =
            mvcc.stores[s]->ReadAtStamp(item, handle.stamp);
        LAZYREP_CHECK(v.ok()) << v.status().ToString();
        sink += static_cast<uint64_t>(*v);
      }
      mvcc.registries[s]->Release(&handle);
    }
    double ns = NanosSince(t0);
    g_sink = sink;
    return ns;
  }) / static_cast<double>(std::max<int64_t>(reads, 1));
  return cost;
}

/// storage.wal: one update record per write and a commit record per
/// committed transaction, as the commit path appends them. Per record.
double ReplayWal(const Ops& ops, int num_sites) {
  int64_t records = 0;
  for (const Record* r : ops.locked) {
    records += static_cast<int64_t>(r->writes.size()) + 1;
  }
  return MedianOf5([&] {
    std::vector<std::unique_ptr<storage::Wal>> wals;
    for (int s = 0; s < num_sites; ++s) {
      wals.push_back(std::make_unique<storage::Wal>());
    }
    Clock::time_point t0 = Clock::now();
    for (const Record* r : ops.locked) {
      storage::Wal& wal = *wals[static_cast<size_t>(r->site)];
      for (ItemId item : r->writes) {
        wal.LogUpdate(r->origin, item, FinalValue(*r, item));
      }
      wal.LogCommit(r->origin);
    }
    return NanosSince(t0);
  }) / static_cast<double>(std::max<int64_t>(records, 1));
}

/// Representative payloads for one message kind, built from the traced
/// rep's committed writes (the in-situ payloads themselves are not kept).
struct KindSamples {
  std::string kind;
  uint64_t count = 0;
  std::vector<core::ProtocolMessage> samples;
};

std::vector<KindSamples> BuildMessageMix(
    const std::vector<std::pair<std::string, uint64_t>>& posted,
    const Ops& ops, const core::SystemConfig& config) {
  constexpr size_t kSamples = 256;
  std::vector<const Record*> writers;
  for (const Record* r : ops.locked) {
    if (KindOf(*r) == storage::TxnKind::kPrimary && !r->writes.empty()) {
      writers.push_back(r);
      if (writers.size() == kSamples) break;
    }
  }
  const bool timestamps = config.protocol == core::Protocol::kDagT;
  auto secondary = [&](size_t i) {
    core::SecondaryUpdate u;
    u.origin = lazyrep::GlobalTxnId{0, static_cast<int64_t>(i)};
    u.origin_site = 0;
    if (!writers.empty()) {
      const Record& r = *writers[i % writers.size()];
      u.origin = r.origin;
      u.origin_site = r.site;
      for (const auto& [item, value] : r.writes_final) {
        u.writes.push_back({item, value});
      }
    }
    u.origin_commit_time = lazyrep::Millis(100) + static_cast<int64_t>(i);
    if (timestamps) {
      // A primary's DAG(T) timestamp: its own site's tuple, one epoch in.
      u.ts = core::Timestamp::Initial(u.origin_site);
      u.ts.BumpOwnLts();
      u.ts.set_epoch(1);
    }
    return u;
  };
  std::vector<KindSamples> mix;
  for (const auto& [kind, count] : posted) {
    KindSamples ks{kind, count, {}};
    for (size_t i = 0; i < kSamples; ++i) {
      core::SecondaryUpdate u = secondary(i);
      const lazyrep::GlobalTxnId origin = u.origin;
      if (kind == "secondary") {
        ks.samples.emplace_back(std::move(u));
      } else if (kind == "special_secondary") {
        u.is_special = true;
        ks.samples.emplace_back(std::move(u));
      } else if (kind == "dummy") {
        u.writes.clear();
        u.is_dummy = true;
        ks.samples.emplace_back(std::move(u));
      } else if (kind == "backedge_start") {
        ks.samples.emplace_back(core::BackedgeStart{
            origin, u.origin_site, u.writes, u.origin_commit_time});
      } else if (kind == "backedge_abort") {
        ks.samples.emplace_back(core::BackedgeAbort{origin});
      } else if (kind == "2pc_prepare") {
        ks.samples.emplace_back(
            core::TpcPrepare{origin, u.origin_site, {}, false});
      } else if (kind == "2pc_vote") {
        ks.samples.emplace_back(core::TpcVote{origin, true});
      } else if (kind == "2pc_decision") {
        ks.samples.emplace_back(
            core::TpcDecision{origin, true, u.origin_commit_time});
      } else if (kind == "2pc_ack") {
        ks.samples.emplace_back(core::TpcAck{origin});
      } else if (kind == "secondary_batch") {
        core::SecondaryBatch batch;
        for (size_t k = 0; k < 4; ++k) {
          batch.updates.push_back(secondary(i + k));
        }
        ks.samples.emplace_back(std::move(batch));
      } else if (kind == "reliable_data") {
        core::ReliableData data;
        data.seq = i + 1;
        data.inner = core::Wire::Encode(core::ProtocolMessage(std::move(u)));
        ks.samples.emplace_back(std::move(data));
      } else if (kind == "reliable_batch") {
        core::ReliableBatch batch;
        batch.seq = i + 1;
        batch.count = 2;
        for (size_t k = 0; k < 2; ++k) {
          std::vector<uint8_t> bytes =
              core::Wire::Encode(core::ProtocolMessage(secondary(i + k)));
          core::Wire::PutVarint(&batch.inner, bytes.size());
          batch.inner.insert(batch.inner.end(), bytes.begin(), bytes.end());
        }
        ks.samples.emplace_back(std::move(batch));
      } else if (kind == "channel_ack") {
        ks.samples.emplace_back(core::ChannelAck{i + 1});
      } else {
        // PSL kinds: lock request/response/release of one item.
        ItemId item = u.writes.empty() ? 0 : u.writes[0].item;
        if (kind == "psl_lock_request") {
          ks.samples.emplace_back(core::PslLockRequest{origin, item, i});
        } else if (kind == "psl_lock_response") {
          ks.samples.emplace_back(
              core::PslLockResponse{origin, item, i, true, 7});
        } else {
          ks.samples.emplace_back(core::PslRelease{origin, true});
        }
      }
    }
    mix.push_back(std::move(ks));
  }
  return mix;
}

/// Scales the replayed message count down to at most `cap` (per-message
/// cost does not depend on how many are replayed).
uint64_t ReplayCount(uint64_t count, uint64_t total, uint64_t cap) {
  if (total <= cap) return count;
  return std::max<uint64_t>(1, count * cap / total);
}

constexpr uint64_t kMaxReplayedMessages = 200000;

/// core.wire: the codec work the in-situ path does per posted message —
/// `EncodedSize` for the network's byte accounting on every post, plus,
/// for reliable-transport frames, `EncodeTo` of the inner message at the
/// sender and `Decode` of it at the receiver. Per message.
double ReplayWire(const std::vector<KindSamples>& mix) {
  uint64_t total = 0;
  for (const KindSamples& ks : mix) total += ks.count;
  uint64_t replayed = 0;
  for (const KindSamples& ks : mix) {
    replayed += ReplayCount(ks.count, total, kMaxReplayedMessages);
  }
  return MedianOf5([&] {
    std::vector<uint8_t> buffer;
    size_t sink = 0;
    Clock::time_point t0 = Clock::now();
    for (const KindSamples& ks : mix) {
      const uint64_t n = ReplayCount(ks.count, total, kMaxReplayedMessages);
      for (uint64_t i = 0; i < n; ++i) {
        const core::ProtocolMessage& msg = ks.samples[i % ks.samples.size()];
        sink += core::Wire::EncodedSize(msg);
        if (const auto* data = std::get_if<core::ReliableData>(&msg)) {
          lazyrep::Result<core::ProtocolMessage> inner =
              core::Wire::Decode(data->inner);
          LAZYREP_CHECK(inner.ok());
          buffer.clear();
          core::Wire::EncodeTo(*inner, &buffer);
          sink += buffer.size();
        }
      }
    }
    double ns = NanosSince(t0);
    g_sink = sink;
    return ns;
  }) / static_cast<double>(std::max<uint64_t>(replayed, 1));
}

/// net: Network::Post through delivery to a no-op handler with the
/// production metrics wiring, as BM_NetworkPostDeliver does (one
/// simulator event per message; sizing belongs to core.wire and is off).
double ReplayNetwork(const std::vector<KindSamples>& mix,
                     const core::SystemConfig& config) {
  using Net = lazyrep::net::Network<core::ProtocolMessage>;
  const int sites = config.workload.num_sites;
  uint64_t total = 0;
  for (const KindSamples& ks : mix) total += ks.count;
  return MedianOf5([&] {
    std::vector<core::ProtocolMessage> posts;
    for (const KindSamples& ks : mix) {
      const uint64_t n = ReplayCount(ks.count, total, kMaxReplayedMessages);
      for (uint64_t i = 0; i < n; ++i) {
        posts.push_back(ks.samples[i % ks.samples.size()]);
      }
    }
    runtime::SimRuntime rt;
    obs::MetricsRegistry registry;
    Net::Config net_config;
    net_config.latency = 0;
    net_config.loopback_latency = 0;
    std::vector<runtime::Resource*> no_cpus(static_cast<size_t>(sites));
    Net net(&rt, sites, net_config, std::move(no_cpus), lazyrep::Rng(1));
    net.SetMetrics(&registry, core::kNumMessageMetricKinds,
                   core::MessageMetricKind, [](int kind) {
                     return std::string(core::MessageMetricKindName(kind));
                   });
    std::vector<int> machine_of(static_cast<size_t>(sites));
    for (int s = 0; s < sites; ++s) {
      machine_of[static_cast<size_t>(s)] =
          s / config.workload.sites_per_machine;
    }
    net.SetMachineMap(std::move(machine_of));
    uint64_t handled = 0;
    for (int s = 0; s < sites; ++s) {
      net.SetHandler(s, [&handled](Net::Envelope) { ++handled; });
    }
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < posts.size(); ++i) {
      SiteId src = static_cast<SiteId>(i % static_cast<size_t>(sites));
      SiteId dst = static_cast<SiteId>((i + 1) % static_cast<size_t>(sites));
      net.Post(src, dst, std::move(posts[i]));
    }
    rt.simulator()->Run();
    double ns = NanosSince(t0);
    LAZYREP_CHECK_EQ(handled, posts.size());
    return ns / static_cast<double>(std::max<size_t>(posts.size(), 1));
  });
}

/// core.history: what `HistoryRecorder::OnCommit` does per commit — copy
/// the transaction's read/write sets and observed/final values into a
/// record and append it. Total over the rep.
double ReplayHistory(const core::HistoryRecorder& history) {
  return MedianOf5([&] {
    core::HistoryRecorder fresh;
    Clock::time_point t0 = Clock::now();
    for (const Record& r : history.records()) fresh.AddRecord(Record(r));
    return NanosSince(t0);
  });
}

/// core.metrics: the collector calls the run made — a commit per 2PL
/// primary (plus the locked-read column for read-only ones), a snapshot
/// read per lock-free read, a registration per propagated primary and an
/// applied notice per secondary, an abort per aborted attempt. Total.
double ReplayMetrics(const Ops& ops, const core::RunMetrics& m,
                     int num_sites) {
  std::map<lazyrep::GlobalTxnId, int> expected;
  for (const Record* r : ops.locked) {
    if (KindOf(*r) == storage::TxnKind::kSecondary) ++expected[r->origin];
  }
  return MedianOf5([&] {
    core::MetricsCollector collector(num_sites);
    const lazyrep::Duration response = lazyrep::Millis(1);
    Clock::time_point t0 = Clock::now();
    for (const Record* r : ops.locked) {
      if (KindOf(*r) == storage::TxnKind::kPrimary) {
        collector.OnPrimaryCommit(r->site, response);
        if (r->writes.empty()) collector.OnLockedReadCommit(r->site, response);
        auto it = expected.find(r->origin);
        if (it != expected.end()) {
          collector.RegisterPropagation(r->origin, it->second, 0);
        }
      } else {
        collector.OnSecondaryApplied(r->origin, response);
      }
    }
    for (const Record* r : ops.snapshots) {
      collector.OnReadCommit(r->site, response);
      collector.OnSnapshotStaleness(r->site, response);
    }
    for (int64_t i = 0; i < m.aborted; ++i) {
      collector.OnPrimaryAbort(static_cast<SiteId>(i % num_sites));
    }
    return NanosSince(t0);
  });
}

/// workload: generating the rep's client transactions. Total.
double ReplayWorkload(core::System& system, int64_t txns) {
  const core::SystemConfig& config = system.config();
  lazyrep::Result<std::unique_ptr<lazyrep::workload::WorkloadSpec>> spec =
      lazyrep::workload::MakeWorkload(config.workload,
                                      system.routing().placement());
  LAZYREP_CHECK(spec.ok()) << spec.status().ToString();
  const int sites = config.workload.num_sites;
  return MedianOf5([&] {
    lazyrep::Rng rng(config.seed);
    size_t sink = 0;
    Clock::time_point t0 = Clock::now();
    for (int64_t i = 0; i < txns; ++i) {
      sink += (*spec)->Next(static_cast<SiteId>(i % sites), &rng).ops.size();
    }
    double ns = NanosSince(t0);
    g_sink = sink;
    return ns;
  });
}

/// runtime: a cross-machine ThreadRuntime enqueue through to the callback
/// running on the other executor, as BM_CrossMachineEnqueue does. Per
/// enqueue.
double ReplayEnqueue() {
  constexpr int64_t kN = 20000;
  return MedianOf5([] {
    runtime::ThreadRuntime rt(2);
    std::atomic<int64_t> delivered{0};
    rt.Start();
    Clock::time_point t0 = Clock::now();
    rt.ScheduleCallbackOn(0, 0, [&rt, &delivered] {
      for (int64_t i = 0; i < kN; ++i) {
        rt.ScheduleCallbackAtOn(1, rt.Now(), [&delivered] {
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
    while (delivered.load(std::memory_order_acquire) < kN) {
      std::this_thread::yield();
    }
    double ns = NanosSince(t0);
    rt.Shutdown();
    return ns;
  }) / static_cast<double>(kN);
}

lazyrep::sim::Co<void> DelayLoop(lazyrep::sim::Simulator* sim, int64_t n) {
  for (int64_t i = 0; i < n; ++i) co_await sim->Delay(1);
}

/// sim: scheduling plus dispatching one simulator event, as
/// BM_SimulatorEventLoop does. Per event.
double ReplaySimEvent() {
  constexpr int64_t kN = 200000;
  return MedianOf5([] {
    lazyrep::sim::Simulator sim;
    sim.Spawn(DelayLoop(&sim, kN));
    Clock::time_point t0 = Clock::now();
    sim.Run();
    return NanosSince(t0);
  }) / static_cast<double>(kN);
}

}  // namespace

MetricValues CollectLayers(const Workload& workload, core::System& system,
                           const RepMeasure& rep,
                           double untraced_cpu_us_per_txn, LedgerCheck* check,
                           MetricValues* extras) {
  const core::SystemConfig& config = system.config();
  const core::RunMetrics& m = rep.metrics;
  const int sites = config.workload.num_sites;
  const double txns = static_cast<double>(CommittedTxns(m));
  const bool threads = workload.threads;
  const bool mvcc_on =
      config.consistency != storage::ConsistencyLevel::kSerializable;
  const std::vector<obs::MetricSnapshot> snap =
      system.obs_registry().Snapshot();
  const Ops ops = PartitionRecords(system.history());
  const std::vector<std::vector<ItemId>> items_by_site =
      system.routing().placement().ItemsBySite();
  MetricValues v;

  // (S) The oracle, re-invoked on the traced rep's history; it must still
  // pass.
  Clock::time_point check_t0 = Clock::now();
  const core::HistoryRecorder& history = system.history();
  const bool serializable = core::CheckSerializability(history).serializable;
  const bool reads = core::CheckReadConsistency(history).consistent;
  const bool snapshots =
      !mvcc_on || core::CheckSnapshotConsistency(history).consistent;
  const bool converged = system.ReplicasConverged();
  const double check_s = NanosSince(check_t0) / 1e9;
  LAZYREP_CHECK(serializable && reads && snapshots && converged)
      << "re-checked verdicts disagree with the traced rep's own";

  // storage.lock
  double lock_waits = 0, lock_timeouts = 0;
  for (SiteId s = 0; s < sites; ++s) {
    const storage::LockManager::Stats& st = system.database(s).locks().stats();
    lock_waits += static_cast<double>(st.waits.load());
    lock_timeouts += static_cast<double>(st.timeouts.load());
  }
  const double lock_ns = ReplayLocks(ops, config) / txns;
  v["lock.ns_per_txn"] = lock_ns;
  v["lock.waits_per_txn"] = lock_waits / txns;
  v["lock.timeouts_per_txn"] = lock_timeouts / txns;
  (*extras)["lock.wait_ms_p99"] =
      HistQuantile(snap, "lazyrep_lock_wait_ms", 0.99);

  // storage.db (own cost: the lock calls it makes are storage.lock's)
  const double db_ns =
      ReplayDatabase(ops, config, items_by_site) / txns - lock_ns;
  v["db.ns_per_txn"] = db_ns;

  // storage.mvcc
  const MvccCost mvcc = ReplayMvcc(ops, config, items_by_site);
  const double snapshot_reads_per_txn =
      static_cast<double>(ops.snapshot_reads) / txns;
  const double publishes_per_txn =
      mvcc_on ? static_cast<double>(ops.locked_writes) / txns : 0.0;
  v["mvcc.read_ns"] = mvcc.read_ns;
  v["mvcc.publish_ns"] = mvcc.publish_ns;
  v["mvcc.reads_per_txn"] = snapshot_reads_per_txn;
  v["mvcc.gc_passes_per_ktxn"] =
      static_cast<double>(m.gc_passes) * 1000 / txns;
  v["mvcc.chain_len_p99"] =
      HistQuantile(snap, "lazyrep_mvcc_chain_length", 0.99);
  (*extras)["mvcc.staleness_ms"] = m.staleness_ms.mean();

  // storage.wal
  double wal_records = 0, wal_syncs = 0, wal_bytes = 0;
  for (SiteId s = 0; s < sites; ++s) {
    const storage::Wal* wal = system.database(s).wal();
    if (wal == nullptr) continue;
    wal_records += static_cast<double>(wal->size());
    wal_syncs += static_cast<double>(wal->sync_batches());
    wal_bytes += static_cast<double>(wal->size_bytes());
  }
  v["wal.ns_per_record"] = ReplayWal(ops, sites);
  v["wal.records_per_txn"] = wal_records / txns;
  v["wal.syncs_per_txn"] = wal_syncs / txns;
  v["wal.bytes_per_txn"] = wal_bytes / txns;

  // core.wire and net
  const std::vector<KindSamples> mix =
      BuildMessageMix(PostedByKind(snap), ops, config);
  const double msgs = static_cast<double>(m.messages);
  const double delivered =
      SumCells(snap, "lazyrep_net_messages_delivered_total");
  v["wire.ns_per_msg"] = ReplayWire(mix);
  v["wire.bytes_per_msg"] = msgs > 0 ? static_cast<double>(m.bytes) / msgs : 0;
  v["net.post_deliver_ns"] = ReplayNetwork(mix, config);
  v["net.msgs_per_txn"] = msgs / txns;
  v["net.inflight_peak"] = MaxCell(snap, "lazyrep_net_inflight_messages_peak");

  // fault.transport
  v["transport.retransmits_per_txn"] =
      SumCells(snap, "lazyrep_transport_retransmissions_total") / txns;
  v["transport.dups_discarded_per_txn"] =
      SumCells(snap, "lazyrep_transport_duplicates_discarded_total") / txns;
  v["transport.window_peak"] = MaxCell(snap, "lazyrep_transport_window_peak");
  (*extras)["transport.ack_rtt_ms_p50"] =
      HistQuantile(snap, "lazyrep_transport_ack_rtt_ms", 0.5);

  // core.engine
  v["engine.apply_lag_ms"] = m.per_site_apply_delay_ms.mean();
  v["engine.queue_peak"] = MaxCell(snap, "lazyrep_engine_queue_peak");
  v["engine.dummies_per_txn"] =
      SumCells(snap, "lazyrep_engine_dummies_sent_total") / txns;
  v["engine.epoch_bumps_per_s"] =
      SumCells(snap, "lazyrep_engine_epoch_bumps_total") /
      lazyrep::ToSeconds(m.drain_elapsed);
  v["engine.backedge_txn_pct"] =
      100.0 * SumCells(snap, "lazyrep_engine_backedge_txns_total") /
      static_cast<double>(std::max<int64_t>(m.committed, 1));

  // core.history
  v["history.records_per_txn"] =
      static_cast<double>(system.history().records().size()) / txns;
  v["history.record_ns_per_txn"] = ReplayHistory(system.history()) / txns;
  v["history.check_s"] = check_s;

  // core.metrics, workload
  v["metrics.ns_per_txn"] = ReplayMetrics(ops, m, sites) / txns;
  v["workload.gen_ns_per_txn"] =
      ReplayWorkload(system, CommittedTxns(m)) / txns;

  // runtime and sim: every delivery is one executor enqueue under the
  // threads runtime; every event is one dispatch under the sim.
  const double events =
      threads ? 0.0
              : static_cast<double>(system.simulator().events_processed());
  v["runtime.enqueue_ns"] = ReplayEnqueue();
  v["runtime.enqueues_per_txn"] = threads ? delivered / txns : 0.0;
  v["sim.event_ns"] = ReplaySimEvent();
  v["sim.events_per_txn"] = events / txns;
  if (!threads && events > 0) {
    (*extras)["sim.ns_per_event"] =
        (rep.run_s - check_s) * 1e9 / events;
  }

  // phase: workload and drain phases in the runtime's clock; the drain
  // share is how much of the time behind replicated_tps is the replicas
  // catching up.
  v["phase.workload_s"] = lazyrep::ToSeconds(m.workload_elapsed);
  v["phase.drain_pct"] =
      100.0 * lazyrep::ToSeconds(m.drain_elapsed - m.workload_elapsed) /
      lazyrep::ToSeconds(m.drain_elapsed);
  // Under the threads runtime the drain instant is wall time from the
  // start of Run; the sim's is virtual, so there the verdict phase is the
  // re-timed oracle.
  v["phase.verdict_s"] =
      threads ? rep.run_s - lazyrep::ToSeconds(m.drain_elapsed)
              : check_s;

  // The ledger: in-situ CPU per committed transaction split over the
  // replayed layers, the oracle span, and the unattributed rest (engines,
  // coroutine plumbing, synchronization and the kernel).
  const std::vector<std::pair<std::string, double>> terms = {
      {"lock", lock_ns},
      {"db", db_ns},
      {"mvcc", mvcc.read_ns * snapshot_reads_per_txn +
                   mvcc.publish_ns * publishes_per_txn},
      {"wal", v["wal.ns_per_record"] * v["wal.records_per_txn"]},
      {"wire", v["wire.ns_per_msg"] * v["net.msgs_per_txn"]},
      {"net", v["net.post_deliver_ns"] * v["net.msgs_per_txn"]},
      {"history", v["history.record_ns_per_txn"]},
      {"metrics", v["metrics.ns_per_txn"]},
      {"workload", v["workload.gen_ns_per_txn"]},
      {"runtime", v["runtime.enqueue_ns"] * v["runtime.enqueues_per_txn"]},
      {"sim", v["sim.event_ns"] * v["sim.events_per_txn"]},
      {"check", check_s * 1e9 / txns},
  };
  double attributed = 0;
  for (const auto& [layer, ns] : terms) {
    attributed += ns;
    (*extras)["ledger." + layer + "_ns_per_txn"] = ns;
  }
  const double total_ns = 1000.0 * untraced_cpu_us_per_txn;
  v["ledger.attributed_ns_per_txn"] = attributed;
  v["ledger.unattributed_ns_per_txn"] = total_ns - attributed;
  const double traced_cpu_us =
      rep.cpu_s * 1e6 / static_cast<double>(CommittedTxns(m));
  v["ledger.trace_overhead_pct"] =
      100.0 * (traced_cpu_us / untraced_cpu_us_per_txn - 1.0);

  // Closure: every replayed layer must have measured work. The op-count
  // multipliers (WAL records, snapshot reads, sim events) may be zero
  // where a workload bypasses the layer; the per-op costs may not.
  const std::vector<std::pair<const char*, double>> replayed = {
      {"lock.ns_per_txn", lock_ns},
      {"db.ns_per_txn", db_ns},
      {"mvcc.read_ns", mvcc.read_ns},
      {"mvcc.publish_ns", mvcc.publish_ns},
      {"wal.ns_per_record", v["wal.ns_per_record"]},
      {"wire.ns_per_msg", v["wire.ns_per_msg"]},
      {"net.post_deliver_ns", v["net.post_deliver_ns"]},
      {"history.record_ns_per_txn", v["history.record_ns_per_txn"]},
      {"metrics.ns_per_txn", v["metrics.ns_per_txn"]},
      {"workload.gen_ns_per_txn", v["workload.gen_ns_per_txn"]},
      {"runtime.enqueue_ns", v["runtime.enqueue_ns"]},
      {"sim.event_ns", v["sim.event_ns"]},
  };
  for (const auto& [name, ns] : replayed) {
    if (!(ns > 0)) check->missing.push_back(name);
  }
  check->negative_unattributed = total_ns - attributed < 0;
  return v;
}

}  // namespace lazybench
