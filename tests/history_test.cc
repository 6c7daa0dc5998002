// Tests for the history recorder and global serializability checker
// (src/core/history.*).

#include <algorithm>
#include <map>
#include <ranges>
#include <set>
#include <string>
#include <unordered_map>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "core/history.h"
#include "runtime/sim_runtime.h"
#include "random_history.h"

namespace lazyrep::core {
namespace {

using scripted::AddAll;
using scripted::RandomHistory;
using scripted::ScriptedCommit;

GlobalTxnId Id(SiteId site, int64_t seq) { return GlobalTxnId{site, seq}; }

/// Builds per-site histories record by record; commit sequence numbers
/// are assigned in call order per site (which is what strict 2PL
/// guarantees in the real system).
class HistoryBuilder {
 public:
  HistoryBuilder& At(SiteId site, GlobalTxnId origin,
                     std::initializer_list<ItemId> reads,
                     std::initializer_list<ItemId> writes) {
    HistoryRecorder::Record record;
    record.site = site;
    record.origin = origin;
    record.commit_seq = next_seq_[site]++;
    record.reads = reads;
    record.writes = writes;
    recorder_.AddRecord(std::move(record));
    return *this;
  }

  SerializabilityVerdict Check() const {
    return CheckSerializability(recorder_);
  }

  const HistoryRecorder& recorder() const { return recorder_; }

 private:
  HistoryRecorder recorder_;
  std::map<SiteId, int64_t> next_seq_;
};

TEST(CheckerTest, EmptyHistoryIsSerializable) {
  HistoryBuilder h;
  SerializabilityVerdict v = h.Check();
  EXPECT_TRUE(v.serializable);
  EXPECT_EQ(v.nodes, 0u);
  EXPECT_EQ(v.edges, 0u);
}

TEST(CheckerTest, NonConflictingTransactionsAreSerializable) {
  HistoryBuilder h;
  h.At(0, Id(0, 1), {}, {1});
  h.At(0, Id(0, 2), {}, {2});
  h.At(1, Id(1, 1), {3}, {4});
  SerializabilityVerdict v = h.Check();
  EXPECT_TRUE(v.serializable);
  EXPECT_EQ(v.nodes, 3u);
  EXPECT_EQ(v.edges, 0u);
}

TEST(CheckerTest, WriteWriteEdgeDetected) {
  HistoryBuilder h;
  h.At(0, Id(0, 1), {}, {1});
  h.At(0, Id(0, 2), {}, {1});
  SerializabilityVerdict v = h.Check();
  EXPECT_TRUE(v.serializable);
  EXPECT_EQ(v.edges, 1u);
}

TEST(CheckerTest, SameSiteOrderIsConsistent) {
  // A chain of conflicts at one site can never cycle: local commit order
  // is total.
  HistoryBuilder h;
  h.At(0, Id(0, 1), {}, {1});
  h.At(0, Id(0, 2), {1}, {2});
  h.At(0, Id(0, 3), {2}, {1});
  EXPECT_TRUE(h.Check().serializable);
}

TEST(CheckerTest, CrossSiteInversionIsDetected) {
  // T_a before T_b at site 0 (ww on item 1), T_b before T_a at site 1
  // (ww on item 2): the classic two-site cycle (Example 4.1 flavour).
  HistoryBuilder h;
  h.At(0, Id(0, 1), {}, {1});
  h.At(0, Id(1, 1), {}, {1});
  h.At(1, Id(1, 1), {}, {2});
  h.At(1, Id(0, 1), {}, {2});
  SerializabilityVerdict v = h.Check();
  EXPECT_FALSE(v.serializable);
  ASSERT_GE(v.cycle.size(), 2u);
}

TEST(CheckerTest, Example11CycleIsDetected) {
  // The paper's Example 1.1: T1 updates a (item 0); T2 reads a, writes b
  // (item 1); T3 reads a and b at site 2.
  //  * site 1: T1's secondary applied before T2 -> T1 -> T2 (wr on a);
  //  * site 2: T2's update to b applied, T3 reads a (old!) and b, then
  //    T1's update to a arrives: T2 -> T3 (wr on b), T3 -> T1 (rw on a).
  HistoryBuilder h;
  GlobalTxnId t1 = Id(0, 1), t2 = Id(1, 1), t3 = Id(2, 1);
  h.At(0, t1, {}, {0});        // T1 primary.
  h.At(1, t1, {}, {0});        // T1 secondary at s2.
  h.At(1, t2, {0}, {1});       // T2 reads new a, writes b.
  h.At(2, t2, {}, {1});        // T2's secondary (b) reaches s3 first.
  h.At(2, t3, {0, 1}, {});     // T3 reads old a, new b.
  h.At(2, t1, {}, {0});        // T1's secondary (a) arrives last.
  SerializabilityVerdict v = h.Check();
  EXPECT_FALSE(v.serializable);
  // The witness cycle must contain T1, T2 and T3.
  std::set<GlobalTxnId> members(v.cycle.begin(), v.cycle.end());
  EXPECT_TRUE(members.count(t1));
  EXPECT_TRUE(members.count(t2));
  EXPECT_TRUE(members.count(t3));
}

TEST(CheckerTest, Example11CorrectOrderIsSerializable) {
  // Same transactions, but T1's update reaches site 2 before T2's (what
  // DAG(WT)/DAG(T) enforce): serializable.
  HistoryBuilder h;
  GlobalTxnId t1 = Id(0, 1), t2 = Id(1, 1), t3 = Id(2, 1);
  h.At(0, t1, {}, {0});
  h.At(1, t1, {}, {0});
  h.At(1, t2, {0}, {1});
  h.At(2, t1, {}, {0});
  h.At(2, t2, {}, {1});
  h.At(2, t3, {0, 1}, {});
  EXPECT_TRUE(h.Check().serializable);
}

TEST(CheckerTest, SecondariesIdentifiedWithTheirOrigin) {
  // The same origin id at several sites is one node; a "conflict" of a
  // transaction with its own secondary adds no edge.
  HistoryBuilder h;
  h.At(0, Id(0, 1), {}, {1});
  h.At(1, Id(0, 1), {}, {1});
  h.At(2, Id(0, 1), {}, {1});
  SerializabilityVerdict v = h.Check();
  EXPECT_TRUE(v.serializable);
  EXPECT_EQ(v.nodes, 1u);
  EXPECT_EQ(v.edges, 0u);
}

TEST(CheckerTest, ReadDominatedByWriteInSameRecord) {
  // A record that reads and writes the same item conflicts as a writer.
  HistoryBuilder h;
  h.At(0, Id(0, 1), {1}, {1});
  h.At(0, Id(0, 2), {1}, {});
  SerializabilityVerdict v = h.Check();
  EXPECT_TRUE(v.serializable);
  EXPECT_EQ(v.edges, 1u);  // wr edge only.
}

TEST(CheckerTest, RwEdgeOrientation) {
  // Reader commits before a later writer: rw edge reader -> writer; the
  // reverse order at another site closes a cycle.
  HistoryBuilder h;
  GlobalTxnId r = Id(0, 1), w = Id(1, 1);
  h.At(0, r, {5}, {});
  h.At(0, w, {}, {5});  // r -> w at site 0.
  h.At(1, w, {}, {6});
  h.At(1, r, {6}, {});  // w -> r at site 1.
  EXPECT_FALSE(h.Check().serializable);
}

TEST(CheckerTest, VerdictToString) {
  HistoryBuilder h;
  h.At(0, Id(0, 1), {}, {1});
  SerializabilityVerdict v = h.Check();
  EXPECT_NE(v.ToString().find("serializable"), std::string::npos);
}

TEST(ReadConsistencyTest, ConsistentHistoryPasses) {
  HistoryRecorder recorder;
  HistoryRecorder::Record w;
  w.site = 0;
  w.origin = Id(0, 1);
  w.commit_seq = 0;
  w.writes = {5};
  w.writes_final = {{5, 42}};
  recorder.AddRecord(w);
  HistoryRecorder::Record r;
  r.site = 0;
  r.origin = Id(0, 2);
  r.commit_seq = 1;
  r.reads = {5};
  r.reads_observed = {{5, 42}};
  recorder.AddRecord(r);
  ReadConsistencyVerdict verdict = CheckReadConsistency(recorder);
  EXPECT_TRUE(verdict.consistent);
  EXPECT_EQ(verdict.reads_checked, 1u);
}

TEST(ReadConsistencyTest, StaleReadDetected) {
  HistoryRecorder recorder;
  HistoryRecorder::Record w;
  w.site = 0;
  w.origin = Id(0, 1);
  w.commit_seq = 0;
  w.writes_final = {{5, 42}};
  recorder.AddRecord(w);
  HistoryRecorder::Record r;
  r.site = 0;
  r.origin = Id(0, 2);
  r.commit_seq = 1;
  r.reads_observed = {{5, 0}};  // Saw the initial value: lost update.
  recorder.AddRecord(r);
  ReadConsistencyVerdict verdict = CheckReadConsistency(recorder);
  EXPECT_FALSE(verdict.consistent);
  EXPECT_NE(verdict.violation.find("item 5"), std::string::npos);
}

TEST(ReadConsistencyTest, InitialValueReadsAreZero) {
  HistoryRecorder recorder;
  HistoryRecorder::Record r;
  r.site = 3;
  r.origin = Id(3, 1);
  r.commit_seq = 0;
  r.reads_observed = {{9, 0}};
  recorder.AddRecord(r);
  EXPECT_TRUE(CheckReadConsistency(recorder).consistent);
  HistoryRecorder recorder2;
  r.reads_observed = {{9, 7}};  // Nobody wrote 7.
  recorder2.AddRecord(r);
  EXPECT_FALSE(CheckReadConsistency(recorder2).consistent);
}

TEST(ReadConsistencyTest, SitesAreIndependent) {
  // A write at site 0 does not make site 1's copy current — the checker
  // is per-site (cross-site ordering is the serializability checker's
  // job).
  HistoryRecorder recorder;
  HistoryRecorder::Record w;
  w.site = 0;
  w.origin = Id(0, 1);
  w.commit_seq = 0;
  w.writes_final = {{5, 42}};
  recorder.AddRecord(w);
  HistoryRecorder::Record r;
  r.site = 1;
  r.origin = Id(1, 1);
  r.commit_seq = 0;
  r.reads_observed = {{5, 0}};  // Replica not yet updated: fine.
  recorder.AddRecord(r);
  EXPECT_TRUE(CheckReadConsistency(recorder).consistent);
}

TEST(ReadConsistencyTest, LockOnlyReadsAreSkipped) {
  HistoryRecorder recorder;
  HistoryRecorder::Record r;
  r.site = 0;
  r.origin = Id(0, 1);
  r.commit_seq = 0;
  r.reads = {4};  // Read set without an observed value (PSL proxy).
  recorder.AddRecord(r);
  ReadConsistencyVerdict verdict = CheckReadConsistency(recorder);
  EXPECT_TRUE(verdict.consistent);
  EXPECT_EQ(verdict.reads_checked, 0u);
}

TEST(RecorderTest, OnCommitCapturesTransactionState) {
  HistoryRecorder recorder;
  storage::Database::Options options;
  options.site = 4;
  runtime::SimRuntime rt;
  sim::Simulator& sim = *rt.simulator();
  storage::Database db(&rt, options, nullptr, &recorder);
  db.store().AddItem(7, 0);
  sim.Spawn([](storage::Database* d) -> sim::Co<void> {
    storage::TxnPtr t = d->Begin(GlobalTxnId{4, 9},
                                 storage::TxnKind::kPrimary);
    Value v;
    (void)co_await d->Read(t, 7, &v);
    (void)co_await d->Write(t, 7, 1);
    (void)co_await d->Commit(t);
  }(&db));
  sim.Run();
  ASSERT_EQ(recorder.records().size(), 1u);
  const HistoryRecorder::Record& r = recorder.records()[0];
  EXPECT_EQ(r.site, 4);
  EXPECT_EQ(r.origin, (GlobalTxnId{4, 9}));
  EXPECT_EQ(r.reads, std::vector<ItemId>{7});
  EXPECT_EQ(r.writes, std::vector<ItemId>{7});
  EXPECT_EQ(r.reads_observed, (FlatMap<ItemId, Value>{{7, 0}}));
  EXPECT_EQ(r.writes_final, (FlatMap<ItemId, Value>{{7, 1}}));
}

TEST(RecorderTest, CountsAborts) {
  HistoryRecorder recorder;
  storage::Database::Options options;
  runtime::SimRuntime rt;
  sim::Simulator& sim = *rt.simulator();
  storage::Database db(&rt, options, nullptr, &recorder);
  db.store().AddItem(1, 0);
  sim.Spawn([](storage::Database* d) -> sim::Co<void> {
    storage::TxnPtr t =
        d->Begin(GlobalTxnId{0, 1}, storage::TxnKind::kPrimary);
    (void)co_await d->Write(t, 1, 5);
    co_await d->Abort(t);
  }(&db));
  sim.Run();
  EXPECT_EQ(recorder.aborts_seen(), 1);
  EXPECT_TRUE(recorder.records().empty());
}

TEST(RecorderTest, AddRecordSortsAndDeduplicatesAccessSets) {
  HistoryRecorder recorder;
  HistoryRecorder::Record r;
  r.site = 0;
  r.origin = Id(0, 1);
  r.commit_seq = 0;
  r.reads = {5, 1, 5, 3, 1};
  r.writes = {9, 2, 9};
  recorder.AddRecord(r);
  EXPECT_EQ(recorder.records()[0].reads, (std::vector<ItemId>{1, 3, 5}));
  EXPECT_EQ(recorder.records()[0].writes, (std::vector<ItemId>{2, 9}));
}

// The recorder copies each record's four blocks into its arena, where
// the held record borrows them. However the blocks fall across chunks, a
// held record must read exactly as it was added, and a copy of it must
// own its blocks.

/// Record `i`: `n` reads, about half as many writes listed in reverse,
/// and a value for every read and write, all derived from `i`.
HistoryRecorder::Record PayloadRecord(int i, int n) {
  HistoryRecorder::Record r;
  r.site = i % 4;
  r.origin = Id(i % 4, i);
  r.commit_seq = i;
  std::vector<ItemId> reads, writes;
  std::vector<std::pair<ItemId, Value>> observed, finals;
  for (int j = 0; j < n; ++j) {
    reads.push_back(i + j);
    observed.push_back({i + j, j});
  }
  for (int j = n / 2; j >= 0; --j) {
    writes.push_back(i + j);
    finals.push_back({i + j, -j});
  }
  r.reads = reads;
  r.writes = writes;
  r.reads_observed = FlatMap<ItemId, Value>(observed.begin(), observed.end());
  r.writes_final = FlatMap<ItemId, Value>(finals.begin(), finals.end());
  return r;
}

/// Expects `r` to read as `PayloadRecord(i, n)` reads once added.
void ExpectPayload(const HistoryRecorder::Record& r, int i, int n) {
  const HistoryRecorder::Record want = PayloadRecord(i, n);
  EXPECT_EQ(r.site, want.site);
  EXPECT_EQ(r.origin, want.origin);
  EXPECT_EQ(r.commit_seq, i);
  EXPECT_EQ(r.reads, want.reads) << "record " << i;
  std::vector<ItemId> writes(want.writes.begin(), want.writes.end());
  std::sort(writes.begin(), writes.end());
  EXPECT_EQ(r.writes, writes) << "record " << i;
  EXPECT_EQ(r.reads_observed, want.reads_observed) << "record " << i;
  EXPECT_EQ(r.writes_final, want.writes_final) << "record " << i;
}

TEST(RecorderTest, RecordLargerThanAChunkReadsBack) {
  // 100 000 reads with their values take about 2 MB, several chunks.
  HistoryRecorder recorder;
  recorder.AddRecord(PayloadRecord(0, 3));
  recorder.AddRecord(PayloadRecord(1, 100000));
  recorder.AddRecord(PayloadRecord(2, 3));
  ASSERT_EQ(recorder.records().size(), 3u);
  ExpectPayload(recorder.records()[0], 0, 3);
  ExpectPayload(recorder.records()[1], 1, 100000);
  ExpectPayload(recorder.records()[2], 2, 3);
}

TEST(RecorderTest, RecordsSpanningManyChunksReadBack) {
  // About 1.4 KB a record: a few megabytes, a dozen or more chunks.
  HistoryRecorder recorder;
  constexpr int kRecords = 3000;
  for (int i = 0; i < kRecords; ++i) {
    recorder.AddRecord(PayloadRecord(i, 1 + i % 120));
  }
  ASSERT_EQ(recorder.records().size(), size_t{kRecords});
  for (int i = 0; i < kRecords; ++i) {
    ExpectPayload(recorder.records()[i], i, 1 + i % 120);
  }
}

TEST(RecorderTest, CopiedRecordOutlivesItsRecorder) {
  std::vector<HistoryRecorder::Record> copies;
  {
    HistoryRecorder recorder;
    for (int i = 0; i < 50; ++i) recorder.AddRecord(PayloadRecord(i, 40));
    for (const HistoryRecorder::Record& r : recorder.records()) {
      copies.push_back(r);
    }
    HistoryRecorder::Record assigned;
    assigned = recorder.records()[7];
    copies.push_back(std::move(assigned));
  }
  ASSERT_EQ(copies.size(), 51u);
  for (int i = 0; i < 50; ++i) ExpectPayload(copies[i], i, 40);
  ExpectPayload(copies[50], 7, 40);
  // A copy added to a second recorder reads back there too.
  HistoryRecorder again;
  again.AddRecord(copies[3]);
  ExpectPayload(again.records()[0], 3, 40);
}

TEST(RecorderTest, CompactArrayLengthIsChecked) {
  // The length word's top bit marks a borrowed block, so 2^31 elements
  // are refused before anything is allocated.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto too_long = std::views::iota(int64_t{0}, int64_t{1} << 31);
  EXPECT_DEATH(
      (CompactArray<int64_t>(too_long.begin(), too_long.end())),
      "CompactArray: 2147483648 elements");
}

TEST(RecorderTest, ConcurrentAddRecordIsRaceFree) {
  // Four threads record at once, as the executors of a threads run do:
  // header-only commits through OnCommit and payload records through
  // AddRecord, so that the arena's chunks fill and roll over under the
  // recorder's mutex.
  HistoryRecorder recorder;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      const storage::Transaction txn(Id(t, -1), storage::TxnKind::kPrimary,
                                     /*start_time=*/0, /*arrival_seq=*/0);
      for (int k = 0; k < kPerThread; ++k) {
        recorder.OnCommit(t, txn, k);
        const int i = t * kPerThread + k;
        recorder.AddRecord(PayloadRecord(i, 1 + i % 60));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(recorder.records().size(), size_t{2 * kThreads * kPerThread});
  int payloads = 0;
  for (const HistoryRecorder::Record& r : recorder.records()) {
    if (r.origin.seq == -1) {
      EXPECT_TRUE(r.reads.empty() && r.writes.empty());
      continue;
    }
    const int i = static_cast<int>(r.commit_seq);
    ExpectPayload(r, i, 1 + i % 60);
    ++payloads;
  }
  EXPECT_EQ(payloads, kThreads * kPerThread);
}

// ---------------------------------------------------------------------
// Differential tests: each check against its original formulation, kept
// here as the reference — CheckSerializability's std::set / std::map
// edge sets, and CheckReadConsistency's and CheckSnapshotConsistency's
// hash-map replays of per-site write streams.

/// Per-(site, item) access streams in a std::map, one std::set of
/// successors per node, DFS over the sets.
SerializabilityVerdict ReferenceCheck(
    const std::vector<ScriptedCommit>& commits) {
  struct Access {
    int64_t commit_seq;
    int node;
    bool write;
  };
  SerializabilityVerdict verdict;
  std::map<GlobalTxnId, int> node_of;
  std::vector<GlobalTxnId> id_of;
  std::map<std::pair<SiteId, ItemId>, std::vector<Access>> streams;
  for (const ScriptedCommit& c : commits) {
    if (c.snapshot) continue;
    auto [it, inserted] =
        node_of.emplace(c.origin, static_cast<int>(id_of.size()));
    if (inserted) id_of.push_back(c.origin);
    const int n = it->second;
    const std::set<ItemId> reads(c.reads.begin(), c.reads.end());
    const std::set<ItemId> writes(c.writes.begin(), c.writes.end());
    for (ItemId i : writes) {
      streams[{c.site, i}].push_back({c.commit_seq, n, true});
    }
    for (ItemId i : reads) {
      if (writes.count(i)) continue;
      streams[{c.site, i}].push_back({c.commit_seq, n, false});
    }
  }
  std::vector<std::set<int>> adj(id_of.size());
  auto add_edge = [&](int a, int b) {
    if (a == b) return;
    if (adj[a].insert(b).second) ++verdict.edges;
  };
  for (auto& [key, accesses] : streams) {
    std::sort(accesses.begin(), accesses.end(),
              [](const Access& a, const Access& b) {
                return a.commit_seq < b.commit_seq;
              });
    int last_writer = -1;
    std::vector<int> readers_since;
    for (const Access& a : accesses) {
      if (a.write) {
        if (last_writer >= 0) add_edge(last_writer, a.node);  // ww
        for (int r : readers_since) add_edge(r, a.node);      // rw
        readers_since.clear();
        last_writer = a.node;
      } else {
        if (last_writer >= 0) add_edge(last_writer, a.node);  // wr
        readers_since.push_back(a.node);
      }
    }
  }
  verdict.nodes = id_of.size();
  enum : uint8_t { kWhite, kGray, kBlack };
  std::vector<uint8_t> color(id_of.size(), kWhite);
  for (size_t start = 0; start < id_of.size(); ++start) {
    if (color[start] != kWhite) continue;
    struct Frame {
      int node;
      std::set<int>::const_iterator next;
    };
    std::vector<Frame> stack;
    color[start] = kGray;
    stack.push_back({static_cast<int>(start), adj[start].begin()});
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next == adj[f.node].end()) {
        color[f.node] = kBlack;
        stack.pop_back();
        continue;
      }
      int next = *f.next;
      ++f.next;
      if (color[next] == kGray) {
        std::vector<GlobalTxnId> cycle;
        cycle.push_back(id_of[next]);
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
          cycle.push_back(id_of[it->node]);
          if (it->node == next) break;
        }
        std::reverse(cycle.begin(), cycle.end());
        verdict.serializable = false;
        verdict.cycle = std::move(cycle);
        return verdict;
      }
      if (color[next] == kWhite) {
        color[next] = kGray;
        stack.push_back({next, adj[next].begin()});
      }
    }
  }
  return verdict;
}

/// The locking commits by ascending site and, within a site, in commit
/// order; ties keep script order, as the recorder does.
std::vector<const ScriptedCommit*> ReferenceCommitOrder(
    const std::vector<ScriptedCommit>& commits) {
  std::vector<const ScriptedCommit*> order;
  for (const ScriptedCommit& c : commits) {
    if (!c.snapshot) order.push_back(&c);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const ScriptedCommit* a, const ScriptedCommit* b) {
                     return a->site != b->site ? a->site < b->site
                                               : a->commit_seq < b->commit_seq;
                   });
  return order;
}

/// Each site's commits replayed in order through a hash map of current
/// values.
ReadConsistencyVerdict ReferenceReadCheck(
    const std::vector<ScriptedCommit>& commits) {
  ReadConsistencyVerdict verdict;
  const std::vector<const ScriptedCommit*> order =
      ReferenceCommitOrder(commits);
  std::unordered_map<ItemId, Value> current;  // Absent = initial 0.
  for (size_t k = 0; k < order.size(); ++k) {
    const ScriptedCommit* r = order[k];
    if (k == 0 || order[k - 1]->site != r->site) current.clear();
    const std::map<ItemId, Value> observed(r->observed.begin(),
                                           r->observed.end());
    for (const auto& [item, seen] : observed) {
      ++verdict.reads_checked;
      auto it = current.find(item);
      Value expected = it == current.end() ? 0 : it->second;
      if (seen != expected && verdict.consistent) {
        verdict.consistent = false;
        verdict.violation = StrPrintf(
            "site %d: txn s%d#%lld read item %d = %lld, expected %lld",
            r->site, r->origin.origin_site,
            static_cast<long long>(r->origin.seq), item,
            static_cast<long long>(seen), static_cast<long long>(expected));
      }
    }
    const std::map<ItemId, Value> finals(r->finals.begin(), r->finals.end());
    for (const auto& [item, value] : finals) current[item] = value;
  }
  return verdict;
}

/// Per site a hash map of per-item write streams sorted by commit order;
/// each snapshot read binary-searched in its item's stream.
SnapshotConsistencyVerdict ReferenceSnapshotCheck(
    const std::vector<ScriptedCommit>& commits) {
  SnapshotConsistencyVerdict verdict;
  struct Write {
    int64_t commit_seq;
    Value value;
  };
  std::map<SiteId, std::unordered_map<ItemId, std::vector<Write>>> writes;
  std::vector<const ScriptedCommit*> snapshots;
  for (const ScriptedCommit& r : commits) {
    if (r.snapshot) {
      snapshots.push_back(&r);
      continue;
    }
    const std::map<ItemId, Value> finals(r.finals.begin(), r.finals.end());
    for (const auto& [item, value] : finals) {
      writes[r.site][item].push_back({r.commit_seq, value});
    }
  }
  for (auto& [site, per_item] : writes) {
    for (auto& [item, stream] : per_item) {
      std::sort(stream.begin(), stream.end(),
                [](const Write& a, const Write& b) {
                  return a.commit_seq < b.commit_seq;
                });
    }
  }
  auto fail = [&](std::string message) {
    if (!verdict.consistent) return;
    verdict.consistent = false;
    verdict.violation = std::move(message);
  };
  for (const ScriptedCommit* r : snapshots) {
    ++verdict.snapshots_checked;
    const int64_t stamp = r->snapshot_stamp;
    if (r->session_floor > stamp) {
      fail(StrPrintf(
          "site %d: snapshot s%d#%lld at stamp %lld below its session "
          "floor %lld (read-your-writes violated)",
          r->site, r->origin.origin_site,
          static_cast<long long>(r->origin.seq),
          static_cast<long long>(stamp),
          static_cast<long long>(r->session_floor)));
    }
    auto site_it = writes.find(r->site);
    const std::map<ItemId, Value> observed(r->observed.begin(),
                                           r->observed.end());
    for (const auto& [item, seen] : observed) {
      ++verdict.reads_checked;
      Value expected = 0;
      if (site_it != writes.end()) {
        auto item_it = site_it->second.find(item);
        if (item_it != site_it->second.end()) {
          const std::vector<Write>& stream = item_it->second;
          auto pos = std::lower_bound(
              stream.begin(), stream.end(), stamp,
              [](const Write& w, int64_t s) { return w.commit_seq < s; });
          if (pos != stream.begin()) expected = std::prev(pos)->value;
        }
      }
      if (seen != expected) {
        fail(StrPrintf(
            "site %d: snapshot s%d#%lld at stamp %lld read item %d = "
            "%lld, expected %lld",
            r->site, r->origin.origin_site,
            static_cast<long long>(r->origin.seq),
            static_cast<long long>(stamp), item,
            static_cast<long long>(seen), static_cast<long long>(expected)));
      }
    }
  }
  return verdict;
}

constexpr int kTrials = 400;

TEST(CheckerDifferentialTest, MatchesReferenceOnRandomHistories) {
  Rng rng(1999);
  int cyclic = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<ScriptedCommit> script = RandomHistory(&rng);
    HistoryRecorder recorder;
    AddAll(script, &recorder);
    const SerializabilityVerdict want = ReferenceCheck(script);
    const SerializabilityVerdict got = CheckSerializability(recorder);
    ASSERT_EQ(got.serializable, want.serializable) << "trial " << trial;
    ASSERT_EQ(got.nodes, want.nodes) << "trial " << trial;
    ASSERT_EQ(got.edges, want.edges) << "trial " << trial;
    ASSERT_EQ(got.cycle, want.cycle) << "trial " << trial;
    ASSERT_EQ(got.ToString(), want.ToString()) << "trial " << trial;
    if (!want.serializable) ++cyclic;
  }
  // Both verdicts are well represented.
  EXPECT_GE(cyclic, kTrials / 5);
  EXPECT_LE(cyclic, kTrials * 4 / 5);
}

TEST(CheckerDifferentialTest, ReadConsistencyMatchesReference) {
  Rng rng(1999);
  int inconsistent = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<ScriptedCommit> script = RandomHistory(&rng);
    HistoryRecorder recorder;
    AddAll(script, &recorder);
    const ReadConsistencyVerdict want = ReferenceReadCheck(script);
    const ReadConsistencyVerdict got = CheckReadConsistency(recorder);
    ASSERT_EQ(got.consistent, want.consistent) << "trial " << trial;
    ASSERT_EQ(got.reads_checked, want.reads_checked) << "trial " << trial;
    ASSERT_EQ(got.violation, want.violation) << "trial " << trial;
    if (!want.consistent) ++inconsistent;
  }
  EXPECT_GE(inconsistent, kTrials / 5);
  EXPECT_LE(inconsistent, kTrials * 4 / 5);
}

TEST(CheckerDifferentialTest, SnapshotConsistencyMatchesReference) {
  Rng rng(1999);
  int consistent = 0, inconsistent = 0, floor_violations = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<ScriptedCommit> script = RandomHistory(&rng);
    HistoryRecorder recorder;
    AddAll(script, &recorder);
    const SnapshotConsistencyVerdict want = ReferenceSnapshotCheck(script);
    const SnapshotConsistencyVerdict got = CheckSnapshotConsistency(recorder);
    ASSERT_EQ(got.consistent, want.consistent) << "trial " << trial;
    ASSERT_EQ(got.snapshots_checked, want.snapshots_checked)
        << "trial " << trial;
    ASSERT_EQ(got.reads_checked, want.reads_checked) << "trial " << trial;
    ASSERT_EQ(got.violation, want.violation) << "trial " << trial;
    if (want.snapshots_checked == 0) continue;
    if (want.consistent) {
      ++consistent;
    } else {
      ++inconsistent;
      if (want.violation.find("session floor") != std::string::npos) {
        ++floor_violations;
      }
    }
  }
  // Both verdicts, and both kinds of violation, are well represented.
  EXPECT_GE(consistent, kTrials / 5);
  EXPECT_GE(inconsistent, kTrials / 10);
  EXPECT_GE(floor_violations, kTrials / 40);
  EXPECT_GE(inconsistent - floor_violations, kTrials / 40);
}

}  // namespace
}  // namespace lazyrep::core
