// Tests for the history recorder and global serializability checker
// (src/core/history.*).

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/history.h"
#include "runtime/sim_runtime.h"

namespace lazyrep::core {
namespace {

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

// ---------------------------------------------------------------------
// Differential test: CheckSerializability against the original
// std::set / std::map formulation of the same edge rule, kept here as
// the reference.

/// One scripted commit with its access lists exactly as scripted:
/// possibly unsorted, possibly with repeats.
struct ScriptedCommit {
  SiteId site;
  GlobalTxnId origin;
  int64_t commit_seq;
  std::vector<ItemId> reads;
  std::vector<ItemId> writes;
  bool snapshot = false;
};

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

/// A random replicated history over 2-5 sites and at most 8 items: each
/// transaction commits at its origin site and at a random subset of the
/// others, every site in its own random order (so the union of the
/// orders is often cyclic), with unsorted, repeating access lists and
/// the occasional snapshot read, appended in a random order.
std::vector<ScriptedCommit> RandomHistory(Rng* rng) {
  const int sites = static_cast<int>(rng->Uniform(2, 5));
  const int items = static_cast<int>(rng->Uniform(1, 8));
  const int txns = static_cast<int>(rng->Uniform(2, 9));
  auto accesses = [&] {
    std::vector<ItemId> out(rng->Index(5));
    for (ItemId& i : out) i = static_cast<ItemId>(rng->Index(items));
    return out;
  };
  std::vector<std::vector<GlobalTxnId>> at_site(sites);
  for (int t = 0; t < txns; ++t) {
    const SiteId origin = static_cast<SiteId>(rng->Index(sites));
    for (SiteId s = 0; s < sites; ++s) {
      if (s == origin || rng->Bernoulli(0.5)) {
        at_site[s].push_back(Id(origin, t));
      }
    }
  }
  std::vector<ScriptedCommit> out;
  for (SiteId s = 0; s < sites; ++s) {
    rng->Shuffle(&at_site[s]);
    int64_t seq = static_cast<int64_t>(rng->Index(3));
    for (const GlobalTxnId& id : at_site[s]) {
      seq += 1 + static_cast<int64_t>(rng->Index(3));
      out.push_back({s, id, seq, accesses(), accesses()});
    }
  }
  if (rng->Bernoulli(0.3)) {
    out.push_back({0, Id(0, 1000), -1, accesses(), {}, /*snapshot=*/true});
  }
  rng->Shuffle(&out);
  return out;
}

TEST(CheckerDifferentialTest, MatchesReferenceOnRandomHistories) {
  Rng rng(1999);
  int cyclic = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::vector<ScriptedCommit> script = RandomHistory(&rng);
    HistoryRecorder recorder;
    for (const ScriptedCommit& c : script) {
      HistoryRecorder::Record r;
      r.site = c.site;
      r.snapshot = c.snapshot;
      r.origin = c.origin;
      r.commit_seq = c.commit_seq;
      r.reads = c.reads;
      r.writes = c.writes;
      recorder.AddRecord(std::move(r));
    }
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

}  // namespace
}  // namespace lazyrep::core
