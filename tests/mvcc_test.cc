// MVCC snapshot-read tests (docs/MVCC.md): version chains and their GC
// keep-rule, the watermark/hazard-slot registry handshake, the snapshot-
// consistency oracle on hand-built histories, watermark edge cases
// (initial snapshot, crash recovery, RYW session migration mid-
// propagation), per-protocol end-to-end runs under the relaxed levels,
// and a raw-thread hammer for the lock-free structures (run under TSan
// in CI).

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "core/streaming_oracle.h"
#include "core/system.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "random_history.h"
#include "runtime/sim_runtime.h"
#include "sim/simulator.h"
#include "storage/database.h"
#include "storage/item_store.h"
#include "storage/mvcc.h"

namespace lazyrep {
namespace {

using core::HistoryRecorder;
using core::Protocol;
using core::scripted::FeedOracle;
using core::System;
using core::SystemConfig;
using runtime::Co;
using runtime::SimRuntime;
using sim::Simulator;
using storage::ConsistencyLevel;
using storage::Database;
using storage::ItemStore;
using storage::SnapshotHandle;
using storage::SnapshotRegistry;
using storage::Transaction;
using storage::TxnKind;
using storage::TxnPtr;
using workload::TxnSpec;

GlobalTxnId Id(SiteId site, int64_t seq) { return GlobalTxnId{site, seq}; }

// ------------------------------------------------------------ ItemStore

TEST(VersionChainTest, ReadAtStampServesEveryCut) {
  ItemStore store;
  store.EnableVersioning();
  store.AddItem(7, 5);
  store.PublishVersion(7, 10, 1);
  store.PublishVersion(7, 20, 3);
  EXPECT_EQ(store.ReadAtStamp(7, 0).value(), 5);   // Initial seed.
  EXPECT_EQ(store.ReadAtStamp(7, 1).value(), 10);
  EXPECT_EQ(store.ReadAtStamp(7, 2).value(), 10);  // Gap stamp: newest <= 2.
  EXPECT_EQ(store.ReadAtStamp(7, 3).value(), 20);
  EXPECT_EQ(store.ReadAtStamp(7, 100).value(), 20);
  EXPECT_EQ(store.ReadAtStamp(8, 1).status().code(), StatusCode::kNotFound);
  auto lengths = store.ChainLengths();
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_EQ(lengths[0], (std::pair<ItemId, size_t>{7, 3u}));
}

TEST(VersionChainTest, ItemsAddedBeforeEnableAreSeeded) {
  ItemStore store;
  store.AddItem(1, 11);  // Before versioning: seeded lazily by Enable.
  store.EnableVersioning();
  store.AddItem(2, 22);
  EXPECT_EQ(store.ReadAtStamp(1, 9).value(), 11);
  EXPECT_EQ(store.ReadAtStamp(2, 9).value(), 22);
}

TEST(VersionChainTest, PruneKeepsTheFloorServingNode) {
  ItemStore store;
  store.EnableVersioning();
  store.AddItem(0, 0);
  for (int64_t s = 1; s <= 4; ++s) {
    store.PublishVersion(0, s * 10, s);
  }
  // Chain (newest first): 4,3,2,1,0-seed. Floor 3 must keep {4,3}: the
  // stamp-3 node still serves every registered stamp in [3, 4).
  EXPECT_EQ(store.PruneVersionsBelow(3), 3u);
  EXPECT_EQ(store.ReadAtStamp(0, 3).value(), 30);
  EXPECT_EQ(store.ReadAtStamp(0, 4).value(), 40);
  auto lengths = store.ChainLengths();
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_EQ(lengths[0].second, 2u);
  // Nothing below the floor left: a second prune at the same floor is a
  // no-op.
  EXPECT_EQ(store.PruneVersionsBelow(3), 0u);
}

TEST(VersionChainTest, ResetReseedsStampZeroAtCurrentValue) {
  ItemStore store;
  store.EnableVersioning();
  store.AddItem(0, 0);
  store.PublishVersion(0, 10, 1);
  store.PublishVersion(0, 20, 2);
  (void)store.Put(0, 99);  // Current in-place value.
  store.ResetVersionsToCurrent();
  EXPECT_EQ(store.ReadAtStamp(0, 0).value(), 99);
  EXPECT_EQ(store.ReadAtStamp(0, 50).value(), 99);
  auto lengths = store.ChainLengths();
  ASSERT_EQ(lengths.size(), 1u);
  EXPECT_EQ(lengths[0].second, 1u);
}

// ----------------------------------------------------- SnapshotRegistry

TEST(SnapshotRegistryTest, AcquireReadsTheCurrentWatermark) {
  SnapshotRegistry reg;
  EXPECT_EQ(reg.watermark(), 0);
  SnapshotHandle h0 = reg.Acquire();
  EXPECT_TRUE(h0.valid());
  EXPECT_EQ(h0.stamp, 0);
  reg.Release(&h0);
  EXPECT_FALSE(h0.valid());

  reg.Publish(3, /*now=*/100);
  EXPECT_EQ(reg.watermark(), 3);
  EXPECT_EQ(reg.last_publish_time(), 100);
  SnapshotHandle h1 = reg.Acquire();
  EXPECT_EQ(h1.stamp, 3);
  reg.Release(&h1);
}

TEST(SnapshotRegistryTest, GcFloorIsCappedByRegisteredReaders) {
  SnapshotRegistry reg;
  reg.Publish(5, 0);
  SnapshotHandle reader = reg.Acquire();  // Pins stamp 5.
  reg.Publish(9, 0);
  EXPECT_EQ(reg.BeginGc(), 5);  // min(watermark=9, reader=5).
  reg.EndGc();
  reg.Release(&reader);
  EXPECT_EQ(reg.BeginGc(), 9);  // No readers: the watermark itself.
  reg.EndGc();
}

TEST(SnapshotRegistryTest, ManyConcurrentHandles) {
  SnapshotRegistry reg;
  reg.Publish(1, 0);
  std::vector<SnapshotHandle> handles;
  for (int i = 0; i < SnapshotRegistry::kSlots; ++i) {
    handles.push_back(reg.Acquire());
    EXPECT_TRUE(handles.back().valid());
  }
  // Distinct slots for concurrently-live handles.
  for (int i = 1; i < SnapshotRegistry::kSlots; ++i) {
    EXPECT_NE(handles[i].slot, handles[0].slot);
  }
  for (auto& h : handles) reg.Release(&h);
}

// --------------------------------------------- ConsistencyLevel parsing

TEST(ConsistencyLevelTest, ParseRoundTripsEveryLevel) {
  for (ConsistencyLevel level :
       {ConsistencyLevel::kSerializable, ConsistencyLevel::kSnapshot,
        ConsistencyLevel::kRyw}) {
    Result<ConsistencyLevel> parsed =
        storage::ParseConsistencyLevel(storage::ConsistencyLevelName(level));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(storage::ParseConsistencyLevel("linearizable").ok());
}

// ------------------------------------------- snapshot-consistency oracle

HistoryRecorder::Record Commit(SiteId site, int64_t seq, ItemId item,
                               Value value) {
  HistoryRecorder::Record r;
  r.site = site;
  r.origin = Id(site, seq + 1);
  r.commit_seq = seq;
  r.writes = {item};
  r.writes_final = {{item, value}};
  return r;
}

HistoryRecorder::Record Snap(SiteId site, int64_t stamp, ItemId item,
                             Value observed, int64_t floor = 0) {
  HistoryRecorder::Record r;
  r.site = site;
  r.origin = Id(site, 1000 + stamp);
  r.commit_seq = -1;
  r.reads = {item};
  r.reads_observed = {{item, observed}};
  r.snapshot = true;
  r.snapshot_stamp = stamp;
  r.session_floor = floor;
  return r;
}

TEST(SnapshotOracleTest, AcceptsAPrefixClosedCut) {
  core::StreamingOracle oracle;
  FeedOracle({Commit(0, 0, 7, 5),   // Stamp 1 installs 5.
              Commit(0, 1, 7, 9),   // Stamp 2 installs 9.
              Snap(0, 0, 7, 0),     // Before everything: initial 0.
              Snap(0, 1, 7, 5),     // Sees seq 0 only.
              Snap(0, 2, 7, 9)},    // Sees both.
             &oracle);
  core::SnapshotConsistencyVerdict verdict = oracle.SnapshotConsistency();
  EXPECT_TRUE(verdict.consistent) << verdict.violation;
  EXPECT_EQ(verdict.snapshots_checked, 3u);
  EXPECT_EQ(verdict.reads_checked, 3u);
}

TEST(SnapshotOracleTest, FlagsATornCut) {
  core::StreamingOracle oracle;
  // Stamp 1 must see 5 (only seq 0 is visible), not the later 9.
  FeedOracle({Commit(0, 0, 7, 5), Commit(0, 1, 7, 9), Snap(0, 1, 7, 9)},
             &oracle);
  core::SnapshotConsistencyVerdict verdict = oracle.SnapshotConsistency();
  EXPECT_FALSE(verdict.consistent);
  EXPECT_FALSE(verdict.violation.empty());
}

TEST(SnapshotOracleTest, FlagsAFloorAboveTheStamp) {
  core::StreamingOracle oracle;
  // A session that committed at stamp 3 locally must not be served a
  // stamp-1 snapshot: read-your-writes would be violated.
  FeedOracle({Commit(0, 0, 7, 5), Snap(0, 1, 7, 5, /*floor=*/3)}, &oracle);
  core::SnapshotConsistencyVerdict verdict = oracle.SnapshotConsistency();
  EXPECT_FALSE(verdict.consistent);
  EXPECT_NE(verdict.violation.find("read-your-writes"), std::string::npos);
}

TEST(SnapshotOracleTest, SitesAreIndependent) {
  core::StreamingOracle oracle;
  // Site 1 never applied the write; its stamp-1 cut (from some local
  // commit of another item) still sees 7's initial value.
  FeedOracle({Commit(0, 0, 7, 5), Commit(1, 0, 8, 1), Snap(1, 1, 7, 0)},
             &oracle);
  core::SnapshotConsistencyVerdict verdict = oracle.SnapshotConsistency();
  EXPECT_TRUE(verdict.consistent) << verdict.violation;
}

TEST(SnapshotOracleTest, LockingCheckersSkipSnapshotRecords) {
  core::StreamingOracle oracle;
  // A snapshot record whose observation would be nonsense under the
  // strict-2PL replay rule: the locking checks must not look at it.
  FeedOracle({Commit(0, 0, 7, 5), Snap(0, 1, 7, 5)}, &oracle);
  core::ReadConsistencyVerdict reads = oracle.ReadConsistency();
  EXPECT_TRUE(reads.consistent) << reads.violation;
  EXPECT_EQ(reads.reads_checked, 0u);  // The only reader is a snapshot.
  core::SerializabilityVerdict ser = oracle.Serializability();
  EXPECT_TRUE(ser.serializable);
  EXPECT_EQ(ser.nodes, 1u);  // The committed writer only.
}

// --------------------------------------------- Database watermark edges

TEST(DatabaseMvccTest, InitialSnapshotAtAnEmptySite) {
  SimRuntime rt;
  Database::Options opts;
  opts.enable_mvcc = true;
  Database db(&rt, opts, nullptr, nullptr);
  db.store().AddItem(0, 0);
  EXPECT_EQ(db.watermark(), 0);  // Nothing applied yet.
  SnapshotHandle handle = db.BeginSnapshot();
  EXPECT_EQ(handle.stamp, 0);
  TxnPtr txn = db.Begin(Id(0, 1), TxnKind::kPrimary);
  EXPECT_EQ(db.SnapshotRead(handle, txn.get(), 0).value(), 0);
  db.FinishSnapshotTxn(txn, handle, 0);
  db.EndSnapshot(&handle);
  EXPECT_EQ(db.snapshot_reads(), 1);
}

TEST(DatabaseMvccTest, WatermarkSurvivesCrashRecovery) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Database::Options opts;
  opts.enable_wal = true;
  opts.enable_mvcc = true;
  opts.num_sites = 2;
  Database db(&rt, opts, nullptr, nullptr);
  db.store().AddItem(0, 0);
  sim.Spawn([](Database* db) -> Co<void> {
    TxnPtr t = db->Begin(Id(0, 1), TxnKind::kPrimary);
    Status st = co_await db->Write(t, 0, 42);
    LAZYREP_CHECK(st.ok()) << st.ToString();
    st = co_await db->Commit(t);
    LAZYREP_CHECK(st.ok()) << st.ToString();
  }(&db));
  sim.Run();
  EXPECT_EQ(db.watermark(), 1);
  db.NoteOriginApplied(1, 4);

  // Crash: version history is volatile; replay the WAL. The watermark
  // and applied-from tracker must ride through monotonically.
  db.RecoverStoreFromWal();
  EXPECT_EQ(db.watermark(), 1);
  EXPECT_EQ(db.applied_from(1), 4);
  SnapshotHandle handle = db.BeginSnapshot();
  EXPECT_EQ(handle.stamp, 1);
  TxnPtr txn = db.Begin(Id(0, 2), TxnKind::kPrimary);
  // The re-seeded stamp-0 chain serves the recovered committed value.
  EXPECT_EQ(db.SnapshotRead(handle, txn.get(), 0).value(), 42);
  db.FinishSnapshotTxn(txn, handle, 0);
  db.EndSnapshot(&handle);
}

TEST(DatabaseMvccTest, AppliedFromIsAMonotoneMax) {
  SimRuntime rt;
  Database::Options opts;
  opts.enable_mvcc = true;
  opts.num_sites = 3;
  Database db(&rt, opts, nullptr, nullptr);
  EXPECT_EQ(db.applied_from(2), 0);
  db.NoteOriginApplied(2, 5);
  db.NoteOriginApplied(2, 3);  // Late duplicate must not regress.
  EXPECT_EQ(db.applied_from(2), 5);
}

// -------------------------------------------------- scripted scenarios

graph::Placement Example11() {
  graph::Placement p;
  p.num_sites = 3;
  p.num_items = 2;
  p.primary = {0, 1};
  p.replicas = {{1, 2}, {2}};
  return p;
}

SystemConfig ScriptedConfig(Protocol protocol, graph::Placement placement) {
  SystemConfig config;
  config.protocol = protocol;
  config.placement = placement;
  config.workload.num_sites = placement.num_sites;
  config.workload.num_items = placement.num_items;
  config.workload.sites_per_machine = placement.num_sites;
  return config;
}

TxnSpec WriteSpec(std::initializer_list<ItemId> items) {
  TxnSpec spec;
  for (ItemId i : items) spec.ops.push_back({true, i});
  return spec;
}

TxnSpec ReadOnlySpec(std::initializer_list<ItemId> items) {
  TxnSpec spec;
  spec.read_only = true;
  for (ItemId i : items) spec.ops.push_back({false, i});
  return spec;
}

TEST(MvccScenario, PslRejectsRelaxedLevels) {
  SystemConfig config = ScriptedConfig(Protocol::kPsl, Example11());
  config.consistency = ConsistencyLevel::kSnapshot;
  auto system = System::Create(std::move(config));
  EXPECT_FALSE(system.ok());
  EXPECT_EQ(system.status().code(), StatusCode::kInvalidArgument);
}

// A RYW session migrating to a replica mid-propagation: its read must
// wait until the origin commit has been applied there, then observe it.
TEST(MvccScenario, RywSessionMigratesMidPropagation) {
  SystemConfig config = ScriptedConfig(Protocol::kDagWt, Example11());
  config.consistency = ConsistencyLevel::kRyw;
  config.enable_trace = true;  // Keeps the snapshot record to inspect.
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, WriteSpec({0})).ok());

  // The session wrote at site 0; its floor is site 0's watermark.
  storage::Session session;
  session.level = ConsistencyLevel::kRyw;
  session.floor_site = 0;
  session.floor_stamp = sys.database(0).watermark();
  ASSERT_GE(session.floor_stamp, 1);
  // The update is still in flight: site 1 has not applied it yet.
  ASSERT_LT(sys.database(1).applied_from(0), session.floor_stamp);

  Status result = Status::Internal("never ran");
  bool done = false;
  TxnSpec read = ReadOnlySpec({0});
  sys.simulator().Spawn(
      [](System* sys, TxnSpec spec, storage::Session* session, Status* out,
         bool* done) -> Co<void> {
        *out = co_await sys->engine(1).ExecuteSnapshotRead(Id(1, 777), spec,
                                                           session);
        *done = true;
      }(&sys, read, &session, &result, &done));
  sys.simulator().Run();  // Runs the wait loop, the applier, the read.
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result.ToString();
  // The read waited out propagation...
  EXPECT_GE(sys.database(1).applied_from(0), session.floor_stamp);
  // ...and observed the session's own write, not a stale replica value.
  const auto& records = sys.history().records();
  auto it = std::find_if(records.begin(), records.end(),
                         [](const HistoryRecorder::Record& r) {
                           return r.snapshot;
                         });
  ASSERT_NE(it, records.end());
  EXPECT_EQ(it->site, 1);
  ASSERT_TRUE(it->reads_observed.count(0));
  EXPECT_EQ(it->reads_observed.at(0), sys.database(0).store().Get(0).value());
  core::SnapshotConsistencyVerdict verdict =
      sys.oracle()->SnapshotConsistency();
  EXPECT_TRUE(verdict.consistent) << verdict.violation;
  EXPECT_EQ(verdict.snapshots_checked, 1u);
}

// At the origin site the session's floor is covered by the watermark
// without any waiting (publication is synchronous inside Commit).
TEST(MvccScenario, RywAtTheOriginSiteNeverWaits) {
  SystemConfig config = ScriptedConfig(Protocol::kDagWt, Example11());
  config.consistency = ConsistencyLevel::kRyw;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, WriteSpec({0})).ok());

  storage::Session session;
  session.level = ConsistencyLevel::kRyw;
  session.floor_site = 0;
  session.floor_stamp = sys.database(0).watermark();
  Status result = Status::Internal("never ran");
  bool done = false;
  TxnSpec read = ReadOnlySpec({0});
  sys.simulator().Spawn(
      [](System* sys, TxnSpec spec, storage::Session* session, Status* out,
         bool* done) -> Co<void> {
        *out = co_await sys->engine(0).ExecuteSnapshotRead(Id(0, 778), spec,
                                                           session);
        *done = true;
      }(&sys, read, &session, &result, &done));
  sys.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.ok()) << result.ToString();
  EXPECT_EQ(sys.database(0).snapshot_reads(), 1);
  sys.DrainPropagation();
}

// ------------------------------------------------- end-to-end workloads

core::RunMetrics RunSmall(Protocol protocol, ConsistencyLevel level,
                          const char* faults = nullptr) {
  SystemConfig config = harness::PaperConfig(protocol);
  config.workload.txns_per_thread = 30;
  config.consistency = level;
  if (protocol != Protocol::kBackEdge) {
    config.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
  }
  if (faults != nullptr) {
    Result<fault::FaultPlan> plan = fault::FaultPlan::Parse(faults);
    LAZYREP_CHECK(plan.ok()) << plan.status().ToString();
    config.faults = *plan;
    config.enable_wal = true;
  }
  auto system = System::Create(std::move(config));
  LAZYREP_CHECK(system.ok()) << system.status().ToString();
  return (*system)->Run();
}

class MvccEndToEnd : public ::testing::TestWithParam<Protocol> {};

TEST_P(MvccEndToEnd, SnapshotLevelHoldsEveryInvariant) {
  core::RunMetrics m = RunSmall(GetParam(), ConsistencyLevel::kSnapshot);
  EXPECT_FALSE(m.timed_out);
  EXPECT_GT(m.committed, 0);
  EXPECT_GT(m.read_committed, 0);
  // NaiveLazy is the paper's negative control: global serializability is
  // exactly what it fails to provide. Snapshot consistency is a per-site
  // prefix property and must hold for it regardless.
  if (GetParam() != Protocol::kNaiveLazy) {
    EXPECT_TRUE(m.serializable) << m.verdict;
  }
  EXPECT_TRUE(m.reads_consistent);
  EXPECT_TRUE(m.snapshots_consistent) << m.verdict;
  EXPECT_GT(m.snapshot_reads_checked, 0u);
  EXPECT_TRUE(m.converged);
}

TEST_P(MvccEndToEnd, RywLevelHoldsEveryInvariant) {
  core::RunMetrics m = RunSmall(GetParam(), ConsistencyLevel::kRyw);
  EXPECT_FALSE(m.timed_out);
  EXPECT_GT(m.read_committed, 0);
  if (GetParam() != Protocol::kNaiveLazy) {
    EXPECT_TRUE(m.serializable) << m.verdict;
  }
  EXPECT_TRUE(m.snapshots_consistent) << m.verdict;
  EXPECT_TRUE(m.converged);
}

INSTANTIATE_TEST_SUITE_P(Protocols, MvccEndToEnd,
                         ::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                                           Protocol::kBackEdge,
                                           Protocol::kNaiveLazy,
                                           Protocol::kEager),
                         [](const auto& info) {
                           switch (info.param) {
                             case Protocol::kDagWt: return "DagWt";
                             case Protocol::kDagT: return "DagT";
                             case Protocol::kBackEdge: return "BackEdge";
                             case Protocol::kNaiveLazy: return "NaiveLazy";
                             case Protocol::kEager: return "Eager";
                             default: return "Psl";
                           }
                         });

TEST(MvccEndToEnd, SnapshotsStayConsistentAcrossACrash) {
  core::RunMetrics m = RunSmall(Protocol::kDagWt, ConsistencyLevel::kSnapshot,
                                "crash:1@500ms+100ms");
  EXPECT_FALSE(m.timed_out);
  EXPECT_GT(m.read_committed, 0);
  EXPECT_TRUE(m.serializable) << m.verdict;
  EXPECT_TRUE(m.snapshots_consistent) << m.verdict;
  EXPECT_TRUE(m.converged);
}

TEST(MvccEndToEnd, DefaultLevelRecordsNoSnapshotReads) {
  core::RunMetrics m = RunSmall(Protocol::kDagWt,
                                ConsistencyLevel::kSerializable);
  EXPECT_EQ(m.read_committed, 0);
  EXPECT_EQ(m.snapshot_reads_checked, 0u);
  EXPECT_TRUE(m.serializable) << m.verdict;
}

// ------------------------------------------------------ raw-thread hammer

// Publisher + snapshot readers + cold readers + GC on the lock-free
// structures directly (no runtime). TSan in CI proves the memory-order
// contract; the value assertions prove the cut is exact: a reader that
// acquired watermark W must see value == stamp W for every item, since
// the publisher publishes all items at stamp s before Publish(s).
TEST(MvccHammerTest, ConcurrentPublishReadAndGc) {
  constexpr int kItems = 8;
  constexpr int64_t kStamps = 2000;
  ItemStore store;
  store.EnableVersioning();
  for (ItemId i = 0; i < kItems; ++i) store.AddItem(i, 0);
  SnapshotRegistry reg;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> mismatches{0};

  std::thread publisher([&] {
    for (int64_t s = 1; s <= kStamps; ++s) {
      for (ItemId i = 0; i < kItems; ++i) {
        (void)store.Put(i, s);  // In-place value (cold-reader target).
        store.PublishVersion(i, s, s);
      }
      reg.Publish(s, s);
      if (s % 64 == 0) {  // The commit path's periodic GC trigger.
        int64_t floor = reg.BeginGc();
        (void)store.PruneVersionsBelow(floor);
        reg.EndGc();
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        SnapshotHandle h = reg.Acquire();
        for (ItemId i = 0; i < kItems; ++i) {
          Result<Value> v = store.ReadAtStamp(i, h.stamp);
          if (!v.ok() || *v != h.stamp) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        reg.Release(&h);
      }
    });
  }

  // Cold readers: the convergence/obs paths hitting slot values and
  // version counters while the publisher updates in place.
  std::thread cold([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto snap = store.Snapshot();
      for (const auto& [item, value] : snap) {
        (void)store.Version(item);
        (void)store.Get(item);
      }
    }
  });

  publisher.join();
  for (auto& t : readers) t.join();
  cold.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Final state: every chain serves the last stamp, GC kept it bounded.
  for (ItemId i = 0; i < kItems; ++i) {
    EXPECT_EQ(store.ReadAtStamp(i, kStamps).value(), kStamps);
  }
}

}  // namespace
}  // namespace lazyrep
