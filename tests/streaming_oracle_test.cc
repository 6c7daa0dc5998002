// Tests for the streaming serializability oracle
// (src/core/streaming_oracle.*): differential tests against the
// quiescence checkers over the random histories the checkers' own
// differential tests use, the arrival-order property its reorder buffer
// relies on, the close rule per protocol, early detection of the
// NaiveLazy negative control, and the agreement tier: the quiescence
// checkers re-check every lazychk configuration CI sweeps.

#include <algorithm>
#include <cctype>
#include <cstring>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/history.h"
#include "core/streaming_oracle.h"
#include "core/system.h"
#include "harness/experiment.h"
#include "harness/lazychk.h"
#include "random_history.h"

namespace lazyrep::core {
namespace {

using Record = HistoryRecorder::Record;
using scripted::AddAll;
using scripted::RandomHistory;
using scripted::ScriptedCommit;

constexpr int kTrials = 400;

bool NonEmpty(const Record& r) {
  return !r.snapshot && (!r.reads.empty() || !r.writes.empty());
}

/// Renumbers each site's commit seqs densely (0, 1, ...) in their order,
/// and each snapshot stamp to the number of the site's commits it sees,
/// as a database numbers them. Every checker reaches the same verdicts
/// with the same counts on the result.
void Densify(std::vector<ScriptedCommit>* script) {
  std::map<SiteId, std::vector<int64_t>> seqs;
  for (const ScriptedCommit& c : *script) {
    if (!c.snapshot) seqs[c.site].push_back(c.commit_seq);
  }
  for (auto& [site, list] : seqs) std::sort(list.begin(), list.end());
  for (ScriptedCommit& c : *script) {
    const std::vector<int64_t>& list = seqs[c.site];
    if (c.snapshot) {
      c.snapshot_stamp =
          std::lower_bound(list.begin(), list.end(), c.snapshot_stamp) -
          list.begin();
    } else {
      c.commit_seq =
          std::lower_bound(list.begin(), list.end(), c.commit_seq) -
          list.begin();
    }
  }
}

bool Conflict(const Record& a, const Record& b) {
  auto meets = [](const CompactArray<ItemId>& x,
                  const CompactArray<ItemId>& y) {
    for (ItemId i : x) {
      if (std::binary_search(y.begin(), y.end(), i)) return true;
    }
    return false;
  };
  return meets(a.writes, b.writes) || meets(a.writes, b.reads) ||
         meets(a.reads, b.writes);
}

/// Announces what the engines would: each transaction's non-empty record
/// count, in order of first appearance in `records`, and each snapshot's
/// stamp.
void Announce(const std::vector<const Record*>& records,
              StreamingOracle* oracle) {
  std::map<GlobalTxnId, int> expected;
  std::vector<GlobalTxnId> first_seen;
  for (const Record* r : records) {
    if (r->snapshot) {
      oracle->BeginSnapshot(r->site, r->origin, r->snapshot_stamp);
      continue;
    }
    auto [it, inserted] = expected.emplace(r->origin, 0);
    if (inserted) first_seen.push_back(r->origin);
    it->second += NonEmpty(*r) ? 1 : 0;
  }
  for (const GlobalTxnId& id : first_seen) {
    oracle->ExpectRecords(id, expected[id]);
  }
}

/// Each site's locking records in commit order, sites interleaved
/// round-robin, snapshots last.
std::vector<const Record*> CommitOrder(const HistoryRecorder& recorder) {
  std::vector<const Record*> order;
  for (const Record& r : recorder.records()) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const Record* a, const Record* b) {
                     return std::make_pair(a->snapshot, a->commit_seq) <
                            std::make_pair(b->snapshot, b->commit_seq);
                   });
  return order;
}

/// Each site's records in a random order that keeps every conflicting
/// pair in seq order, the sites randomly interleaved, snapshot records
/// dropped in anywhere.
std::vector<const Record*> Permuted(const HistoryRecorder& recorder,
                                    Rng* rng) {
  std::map<SiteId, std::vector<const Record*>> by_site;
  std::vector<const Record*> snapshots;
  for (const Record* r : CommitOrder(recorder)) {
    (r->snapshot ? snapshots : by_site[r->site]).push_back(r);
  }
  std::vector<std::vector<const Record*>> streams;
  for (auto& [site, list] : by_site) {
    // Random adjacent swaps of non-conflicting neighbours.
    for (size_t round = 0; round < 3 * list.size(); ++round) {
      if (list.size() < 2) break;
      const size_t k = rng->Index(list.size() - 1);
      if (!Conflict(*list[k], *list[k + 1])) std::swap(list[k], list[k + 1]);
    }
    std::reverse(list.begin(), list.end());  // Popped from the back.
    streams.push_back(std::move(list));
  }
  std::vector<const Record*> out;
  while (!streams.empty()) {
    const size_t s = rng->Index(streams.size());
    out.push_back(streams[s].back());
    streams[s].pop_back();
    if (streams[s].empty()) streams.erase(streams.begin() + s);
  }
  for (const Record* snap : snapshots) {
    out.insert(out.begin() + rng->Index(out.size() + 1), snap);
  }
  return out;
}

/// Checks `oracle`'s verdicts and counts against the quiescence
/// checkers over `recorder`, the records it was fed.
void ExpectSameVerdicts(StreamingOracle& oracle,
                        const HistoryRecorder& recorder) {
  const SerializabilityVerdict want = CheckSerializability(recorder);
  const SerializabilityVerdict got = oracle.Serializability();
  ASSERT_EQ(got.serializable, want.serializable)
      << "oracle: " << got.ToString()
      << "; quiescence checker: " << want.ToString();
  ASSERT_EQ(got.nodes, want.nodes);
  ASSERT_EQ(got.edges, want.edges);
  if (!got.serializable) {
    ASSERT_GE(got.cycle.size(), 3u);
    EXPECT_EQ(got.cycle.front(), got.cycle.back());
  }
  const ReadConsistencyVerdict want_reads = CheckReadConsistency(recorder);
  const ReadConsistencyVerdict got_reads = oracle.ReadConsistency();
  ASSERT_EQ(got_reads.consistent, want_reads.consistent);
  ASSERT_EQ(got_reads.reads_checked, want_reads.reads_checked);
  const SnapshotConsistencyVerdict want_snaps =
      CheckSnapshotConsistency(recorder);
  const SnapshotConsistencyVerdict got_snaps = oracle.SnapshotConsistency();
  ASSERT_EQ(got_snaps.consistent, want_snaps.consistent);
  ASSERT_EQ(got_snaps.snapshots_checked, want_snaps.snapshots_checked);
  ASSERT_EQ(got_snaps.reads_checked, want_snaps.reads_checked);
}

/// Feeds `order` to a fresh oracle and checks its verdicts and counts
/// against the quiescence checkers over `recorder`.
void ExpectAgreement(const HistoryRecorder& recorder,
                     const std::vector<const Record*>& order, int trial) {
  SCOPED_TRACE("trial " + std::to_string(trial));
  StreamingOracle oracle;
  Announce(order, &oracle);
  for (const Record* r : order) oracle.AddRecord(Record(*r));
  oracle.CheckDrained();
  ExpectSameVerdicts(oracle, recorder);
  const StreamingOracle::Stats stats = oracle.stats();
  EXPECT_EQ(stats.live_txns, 0u);
  EXPECT_EQ(stats.buffered_records, 0u);
}

TEST(StreamingOracleTest, MatchesQuiescenceCheckersInCommitOrder) {
  Rng rng(1999);
  int cyclic = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<ScriptedCommit> script = RandomHistory(&rng);
    Densify(&script);
    HistoryRecorder recorder;
    AddAll(script, &recorder);
    ExpectAgreement(recorder, CommitOrder(recorder), trial);
    if (HasFatalFailure()) return;
    if (!CheckSerializability(recorder).serializable) ++cyclic;
  }
  EXPECT_GE(cyclic, kTrials / 5);
  EXPECT_LE(cyclic, kTrials * 4 / 5);
}

TEST(StreamingOracleTest, MatchesQuiescenceCheckersOutOfOrder) {
  Rng rng(1999);
  Rng shuffle(2006);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<ScriptedCommit> script = RandomHistory(&rng);
    Densify(&script);
    HistoryRecorder recorder;
    AddAll(script, &recorder);
    ExpectAgreement(recorder, Permuted(recorder, &shuffle), trial);
    if (HasFatalFailure()) return;
  }
}

/// True when some site commits `a`'s record before `b`'s and they
/// conflict: `a -> b` is a conflict edge.
bool IsConflictEdge(const std::deque<Record>& records, const GlobalTxnId& a,
                    const GlobalTxnId& b) {
  for (const Record& x : records) {
    if (x.snapshot || !(x.origin == a)) continue;
    for (const Record& y : records) {
      if (y.snapshot || !(y.origin == b) || y.site != x.site) continue;
      if (x.commit_seq < y.commit_seq && Conflict(x, y)) return true;
    }
  }
  return false;
}

TEST(StreamingOracleTest, MatchesQuiescenceCheckersWhenTheOrderIsRebuilt) {
  // Large histories announced in a random order: the topological order
  // starts out far from any serialization order, so insertions exceed
  // the search budget and the order is rebuilt in batches.
  constexpr int kTxns = 3000;
  constexpr int kSites = 3;
  constexpr int kItems = 50;
  Rng rng(77);
  for (int trial = 0; trial < 4; ++trial) {
    HistoryRecorder recorder;
    std::vector<std::vector<int>> at_site(kSites);
    std::vector<SiteId> origin(kTxns);
    for (int t = 0; t < kTxns; ++t) {
      origin[t] = static_cast<SiteId>(rng.Index(kSites));
      for (SiteId s = 0; s < kSites; ++s) {
        if (s == origin[t] || rng.Bernoulli(0.5)) at_site[s].push_back(t);
      }
    }
    // Odd trials swap a few neighbours at one site: almost surely a cycle.
    if (trial % 2 == 1) {
      for (int k = 0; k < 5; ++k) {
        std::vector<int>& order = at_site[2];
        const size_t at = rng.Index(order.size() - 1);
        std::swap(order[at], order[at + 1]);
      }
    }
    for (SiteId s = 0; s < kSites; ++s) {
      for (size_t seq = 0; seq < at_site[s].size(); ++seq) {
        const int t = at_site[s][seq];
        Record r;
        r.site = s;
        r.origin = GlobalTxnId{origin[t], t};
        r.commit_seq = static_cast<int64_t>(seq);
        Rng items(static_cast<uint64_t>(t) + 1);  // Same sets everywhere.
        r.writes = {static_cast<ItemId>(items.Index(kItems))};
        r.reads = {static_cast<ItemId>(items.Index(kItems))};
        recorder.AddRecord(std::move(r));
      }
    }
    // One site after another: transactions stay open, the graph grows.
    std::vector<const Record*> order;
    for (const Record& r : recorder.records()) order.push_back(&r);
    std::vector<const Record*> announce = order;
    rng.Shuffle(&announce);
    StreamingOracle oracle;
    Announce(announce, &oracle);
    for (const Record* r : order) oracle.AddRecord(Record(*r));
    const SerializabilityVerdict want = CheckSerializability(recorder);
    const SerializabilityVerdict got = oracle.Serializability();
    oracle.CheckDrained();
    EXPECT_GT(oracle.stats().resorts, 0u) << "trial " << trial;
    ASSERT_EQ(got.serializable, want.serializable) << "trial " << trial;
    EXPECT_EQ(got.nodes, want.nodes) << "trial " << trial;
    EXPECT_EQ(got.edges, want.edges) << "trial " << trial;
    for (size_t k = 0; k + 1 < got.cycle.size(); ++k) {
      EXPECT_TRUE(IsConflictEdge(recorder.records(), got.cycle[k],
                                 got.cycle[k + 1]))
          << "trial " << trial << ", witness step " << k;
    }
  }
}

TEST(StreamingOracleTest, DeletesTransactionsThatCanNoLongerJoinACycle) {
  // One site, a chain of single-record writers of one item: each closes
  // at once and its only in-edge comes from its predecessor, already
  // deleted, so nothing stays live.
  StreamingOracle oracle;
  for (int64_t i = 0; i < 1000; ++i) {
    Record r;
    r.site = 0;
    r.origin = GlobalTxnId{0, i};
    r.commit_seq = i;
    r.writes = {7};
    r.writes_final = {{7, i + 1}};
    oracle.AddRecord(std::move(r));
  }
  const StreamingOracle::Stats stats = oracle.stats();
  EXPECT_EQ(stats.live_txns, 0u);
  EXPECT_EQ(stats.peak_live_txns, 1u);
  const SerializabilityVerdict verdict = oracle.Serializability();
  EXPECT_TRUE(verdict.serializable);
  EXPECT_EQ(verdict.nodes, 1000u);
  EXPECT_EQ(verdict.edges, 999u);
  oracle.CheckDrained();
}

TEST(StreamingOracleTest, ConcurrentOutOfOrderCommits) {
  // Two sites; every transaction commits at both, in a different order at
  // each. Four threads feed them, two per site, each taking every other
  // seq, so each site's seqs arrive out of order.
  constexpr int kTxns = 2000;
  constexpr int kItems = 40;
  HistoryRecorder recorder;
  Rng rng(4);
  for (SiteId site = 0; site < 2; ++site) {
    std::vector<int64_t> order(kTxns);
    for (int t = 0; t < kTxns; ++t) order[t] = t;
    // Site 1 commits in the same order, except for a few swapped pairs.
    if (site == 1) {
      for (int k = 0; k < 20; ++k) {
        const size_t at = rng.Index(kTxns - 1);
        std::swap(order[at], order[at + 1]);
      }
    }
    for (int64_t seq = 0; seq < kTxns; ++seq) {
      const int64_t t = order[seq];
      Record r;
      r.site = site;
      r.origin = GlobalTxnId{0, t};
      r.commit_seq = seq;
      r.writes = {static_cast<ItemId>(t % kItems)};
      r.reads = {static_cast<ItemId>((t * 7 + 3) % kItems)};
      recorder.AddRecord(std::move(r));
    }
  }
  StreamingOracle oracle;
  for (int t = 0; t < kTxns; ++t) oracle.ExpectRecords(GlobalTxnId{0, t}, 2);
  std::vector<std::thread> feeders;
  for (int f = 0; f < 4; ++f) {
    feeders.emplace_back([&recorder, &oracle, f] {
      for (const Record& r : recorder.records()) {
        if (r.site == f / 2 && r.commit_seq % 2 == f % 2) {
          oracle.AddRecord(Record(r));
        }
      }
    });
  }
  for (std::thread& t : feeders) t.join();
  oracle.CheckDrained();
  const SerializabilityVerdict want = CheckSerializability(recorder);
  const SerializabilityVerdict got = oracle.Serializability();
  EXPECT_EQ(got.serializable, want.serializable);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.edges, want.edges);
  EXPECT_FALSE(got.serializable) << "the swapped pairs conflict";
}

TEST(StreamingOracleDeathTest, RecordForAClosedTransactionFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto record = [](SiteId site, int64_t txn, int64_t seq) {
    Record r;
    r.site = site;
    r.origin = GlobalTxnId{0, txn};
    r.commit_seq = seq;
    r.writes = {1};
    return r;
  };
  // Closed and deleted: it announced one record and had it.
  EXPECT_DEATH(
      {
        StreamingOracle oracle;
        oracle.ExpectRecords(GlobalTxnId{0, 0}, 1);
        oracle.AddRecord(record(0, 0, 0));
        oracle.AddRecord(record(1, 0, 0));
      },
      "recorded closed transaction s0#0");
  // Closed but still live: an open transaction precedes it.
  EXPECT_DEATH(
      {
        StreamingOracle oracle;
        oracle.ExpectRecords(GlobalTxnId{0, 0}, 2);
        oracle.ExpectRecords(GlobalTxnId{0, 1}, 1);
        oracle.AddRecord(record(0, 0, 0));
        oracle.AddRecord(record(0, 1, 1));
        oracle.AddRecord(record(2, 1, 0));
      },
      "recorded closed transaction s0#1");
}

SystemConfig SmallSimConfig(Protocol protocol, uint64_t seed) {
  SystemConfig config;
  config.protocol = protocol;
  config.seed = seed;
  config.workload.num_sites = 6;
  config.workload.sites_per_machine = 3;
  config.workload.num_items = 60;
  config.workload.threads_per_site = 2;
  config.workload.txns_per_thread = 25;
  config.workload.replication_prob = 0.3;
  config.workload.backedge_prob = protocol == Protocol::kBackEdge ? 0.4 : 0;
  config.max_sim_time = Seconds(600);
  return config;
}

class CloseRuleTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(CloseRuleTest, EachTransactionClosesOnItsNonEmptyRecordCount) {
  SystemConfig config = SmallSimConfig(GetParam(), 3);
  config.enable_trace = true;  // Keeps the records to count.
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  std::map<GlobalTxnId, int> announced;
  (*system)->oracle()->SetCloseHook(
      [&announced](const GlobalTxnId& id, int records) {
        EXPECT_TRUE(announced.emplace(id, records).second);
      });
  RunMetrics metrics = (*system)->Run();
  ASSERT_FALSE(metrics.timed_out);
  std::map<GlobalTxnId, int> recorded;
  for (const Record& r : (*system)->history().records()) {
    if (NonEmpty(r)) ++recorded[r.origin];
  }
  ASSERT_FALSE(recorded.empty());
  EXPECT_EQ(announced, recorded);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, CloseRuleTest,
    ::testing::Values(Protocol::kDagWt, Protocol::kDagT, Protocol::kBackEdge,
                      Protocol::kPsl, Protocol::kNaiveLazy, Protocol::kEager),
    [](const auto& info) {
      std::string name = ProtocolName(info.param);
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(StreamingOracleTest, ConflictingCommitsArriveInSeqOrder) {
  // With several worker lanes per site, commits reach the observers
  // outside the database mutex. Conflicting ones still arrive in seq
  // order: the later one cannot commit before the earlier releases its
  // locks, which it does only after notifying. (Traced, so the recorder
  // keeps each site's arrival order.)
  SystemConfig config = SmallSimConfig(Protocol::kDagWt, 5);
  config.runtime = runtime::RuntimeKind::kThreads;
  config.workers_per_site = 3;
  config.enable_trace = true;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  RunMetrics metrics = (*system)->Run();
  ASSERT_FALSE(metrics.timed_out);
  EXPECT_TRUE(metrics.serializable) << metrics.verdict;
  std::map<SiteId, std::vector<const Record*>> arrivals;
  for (const Record& r : (*system)->history().records()) {
    if (!r.snapshot) arrivals[r.site].push_back(&r);
  }
  size_t pairs = 0;
  for (const auto& [site, list] : arrivals) {
    for (size_t i = 0; i < list.size(); ++i) {
      for (size_t j = i + 1; j < list.size(); ++j) {
        if (!Conflict(*list[i], *list[j])) continue;
        ++pairs;
        EXPECT_LT(list[i]->commit_seq, list[j]->commit_seq)
            << "site " << site << ": conflicting seq "
            << list[j]->commit_seq << " arrived before seq "
            << list[i]->commit_seq;
      }
    }
  }
  EXPECT_GT(pairs, 100u);
}

/// Re-walks a cycle witness: it must end where it starts, and each step
/// must be a real conflict, the earlier transaction's record before the
/// later's in some site's commit order.
void ExpectWitnessIsACycle(const std::deque<Record>& records,
                           const std::vector<GlobalTxnId>& cycle) {
  ASSERT_GE(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), cycle.back());
  for (size_t k = 0; k + 1 < cycle.size(); ++k) {
    EXPECT_TRUE(IsConflictEdge(records, cycle[k], cycle[k + 1]))
        << "no conflict orders s" << cycle[k].origin_site << "#"
        << cycle[k].seq << " before s" << cycle[k + 1].origin_site << "#"
        << cycle[k + 1].seq;
  }
}

TEST(StreamingOracleTest, NaiveLazyViolationIsCaughtBeforeQuiescence) {
  // The negative control: NaiveLazy on a cyclic copy graph (b = 0.2).
  std::unique_ptr<System> system;
  for (uint64_t seed = 1; seed <= 20 && system == nullptr; ++seed) {
    SystemConfig config = harness::PaperConfig(Protocol::kNaiveLazy);
    config.workload.backedge_prob = 0.2;
    config.workload.txns_per_thread = 20;
    config.seed = seed;
    config.enable_trace = true;  // Keeps the records the witness names.
    auto created = System::Create(std::move(config));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    if (!(*created)->Run().serializable) system = std::move(*created);
  }
  ASSERT_NE(system, nullptr) << "no seed produced a violation";
  const StreamingOracle::Detection detection = system->oracle()->detection();
  const std::deque<Record>& records = system->history().records();
  ASSERT_GE(detection.record_index, 0);
  EXPECT_LT(detection.record_index + 1,
            static_cast<int64_t>(records.size()))
      << "detected only by the last record";

  ExpectWitnessIsACycle(records, system->oracle()->Serializability().cycle);
}

// The agreement tier: every lazychk configuration CI sweeps, traced so
// that the run keeps its history, which the quiescence checkers, the
// reference implementation, then re-check: they must reach the oracle's
// verdicts with the same counts on every run.

/// The argument lists of the lazychk sweeps in CI's schedule-fuzz job
/// (.github/workflows/ci.yml), one per configuration; keep the two in
/// step. Last comes the NaiveLazy negative control of its replay step.
std::vector<std::string> CiLazychkArgs() {
  const std::string faults =
      " --faults=drop:0.01,dup:0.01,crash:2@500ms+100ms";
  const std::string batching = " --batch-window=2ms --group-commit";
  std::vector<std::string> out;
  for (const char* p : {"dagwt", "dagt", "backedge"}) {
    const std::string run = std::string("--protocol=") + p;
    for (const std::string& extra : {std::string(), faults}) {
      out.push_back(run + " --seeds=50 --shrink" + extra);
      out.push_back(run + " --seeds=34 --shrink" + batching + extra);
      out.push_back(run + " --seeds=34 --shrink --consistency=snapshot" +
                    extra);
    }
    out.push_back(run + " --topology=chain:64 --txns=5 --seeds=10 --shrink");
    out.push_back(run + " --topology=tree:64,4 --txns=5 --seeds=10 --shrink");
    out.push_back(run + " --faults=drop:0.1,dup:0.1 --seeds=10");
  }
  for (const char* p : {"psl", "eager"}) {
    const std::string run = std::string("--protocol=") + p;
    out.push_back(run + " --seeds=50 --shrink");
    out.push_back(run + " --seeds=50 --shrink --faults=drop:0.01,dup:0.01");
  }
  out.push_back(
      "--protocol=backedge --topology=rand:64,0.10 --txns=5 --seeds=10 "
      "--shrink");
  out.push_back(
      "--protocol=dagt --topology=chain:64 --txns=5 --seeds=10 --shrink "
      "--faults=drop:0.01,dup:0.01,crash:32@100ms+100ms");
  for (const char* w : {"ycsb_a", "smallbank", "tpcc_lite"}) {
    for (const char* p : {"dagwt", "dagt", "backedge"}) {
      const std::string run = std::string("--protocol=") + p +
                              " --workload=" + w + " --zipf=0.8 --seeds=34 " +
                              "--shrink";
      out.push_back(run);
      out.push_back(run + faults);
    }
  }
  out.push_back("--protocol=naive --seeds=3 --txns=20 --zipf=0.1234567");
  return out;
}

class OracleAgreementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OracleAgreementTest, QuiescenceCheckersReachTheOracleVerdicts) {
  constexpr int kSeeds = 3;
  std::vector<std::string> args;
  std::istringstream words(GetParam());
  for (std::string word; words >> word;) args.push_back(word);
  harness::LazychkOptions options;
  const Status parsed = harness::ParseLazychkArgs(args, &options);
  ASSERT_TRUE(parsed.ok()) << parsed.ToString();
  const bool control = options.run.protocol == Protocol::kNaiveLazy;
  int violations = 0;
  for (int i = 0; i < std::min(options.seeds, kSeeds); ++i) {
    const uint64_t seed = options.first_seed + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    SystemConfig config = harness::LazychkConfig(options, seed, options.policy);
    config.enable_trace = true;
    auto system = System::Create(std::move(config));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    ASSERT_FALSE((*system)->Run().timed_out);
    const HistoryRecorder& history = (*system)->history();
    StreamingOracle& oracle = *(*system)->oracle();
    ASSERT_FALSE(history.records().empty());
    ExpectSameVerdicts(oracle, history);
    if (HasFatalFailure()) return;
    const SerializabilityVerdict verdict = oracle.Serializability();
    if (!control || verdict.serializable) continue;
    ++violations;
    ExpectWitnessIsACycle(history.records(), verdict.cycle);
  }
  if (control) {
    EXPECT_GT(violations, 0) << "the control found no violation";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ci, OracleAgreementTest, ::testing::ValuesIn(CiLazychkArgs()),
    [](const auto& info) {
      // "--protocol=dagt --seeds=50" -> "dagt_seeds_50".
      std::string name;
      for (char c : info.param.substr(std::strlen("--protocol="))) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
          name += c;
        } else if (!name.empty() && name.back() != '_') {
          name += '_';
        }
      }
      return name;
    });

}  // namespace
}  // namespace lazyrep::core
