// Scripted protocol scenarios: deterministic reconstructions of the
// paper's worked examples (§2's Example 1.1 discussion, §3.2's timestamp
// walkthrough, §3.3's progress example, §4.1's Example 4.1 trace) plus
// per-engine behaviours that randomized workloads cannot pin down.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "core/engine_backedge.h"
#include "core/engine_dag_t.h"
#include "core/engine_dag_wt.h"
#include "core/engine_psl.h"
#include "core/system.h"

namespace lazyrep::core {
namespace {

using workload::TxnSpec;

// Example 1.1 / Figure 1: item 0 ("a") primary at site 0 with replicas at
// 1 and 2; item 1 ("b") primary at site 1 with a replica at 2.
graph::Placement Example11() {
  graph::Placement p;
  p.num_sites = 3;
  p.num_items = 2;
  p.primary = {0, 1};
  p.replicas = {{1, 2}, {2}};
  return p;
}

// Example 4.1: two sites, mutual replication.
graph::Placement Example41() {
  graph::Placement p;
  p.num_sites = 2;
  p.num_items = 2;
  p.primary = {0, 1};
  p.replicas = {{1}, {0}};
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

TxnSpec Write(std::initializer_list<ItemId> items) {
  TxnSpec spec;
  for (ItemId i : items) spec.ops.push_back({true, i});
  return spec;
}

TxnSpec ReadThenWrite(ItemId read_item, ItemId write_item) {
  TxnSpec spec;
  spec.ops.push_back({false, read_item});
  spec.ops.push_back({true, write_item});
  return spec;
}

// Steps the simulator `steps` times by 1 µs. Once `armed()` holds, every
// site reading quiescent must have no active transaction: a handler that
// is still committing or rolling one back counts as work in flight.
void ExpectQuiescentSitesIdle(System& sys, int steps,
                              const std::function<bool()>& armed) {
  const int num_sites = sys.config().workload.num_sites;
  for (int step = 0; step < steps; ++step) {
    sys.simulator().RunUntil(sys.simulator().Now() + Micros(1));
    if (!armed()) continue;
    for (SiteId s = 0; s < num_sites; ++s) {
      ASSERT_TRUE(!sys.engine(s).Quiescent() ||
                  sys.database(s).ActiveTransactions().empty())
          << "site " << s << " quiescent with an active transaction at t="
          << sys.simulator().Now();
    }
  }
}

// ------------------------------------------------------------- DAG(WT)

TEST(DagWtScenario, UpdateIsRelayedThroughTheChain) {
  auto system = System::Create(
      ScriptedConfig(Protocol::kDagWt, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  sys.DrainPropagation();
  Value v = sys.database(0).store().Get(0).value();
  EXPECT_EQ(sys.database(1).store().Get(0).value(), v);
  EXPECT_EQ(sys.database(2).store().Get(0).value(), v);
  // Chain 0-1-2: the update travelled 0->1 and 1->2; never 0->2 directly.
  ProtocolNetwork::Stats net = sys.network().Snapshot();
  EXPECT_EQ(net.sent_from[0], 1u);
  EXPECT_EQ(net.sent_from[1], 1u);
  EXPECT_EQ(net.total_messages, 2u);
}

TEST(DagWtScenario, IrrelevantChildrenAreSkipped) {
  // Item 1's only replica is at site 2; a site-1 update of it must go
  // 1->2 but site 2 (a leaf) forwards nothing.
  auto system = System::Create(
      ScriptedConfig(Protocol::kDagWt, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(1, Write({1})).ok());
  sys.DrainPropagation();
  EXPECT_EQ(sys.network().Snapshot().total_messages, 1u);
  EXPECT_EQ(sys.database(2).store().Get(1).value(),
            sys.database(1).store().Get(1).value());
}

TEST(DagWtScenario, SecondariesCommitInForwardingOrder) {
  // Two sequential site-0 updates of the same item arrive FIFO; the
  // final replica value everywhere is the second write's.
  auto system = System::Create(
      ScriptedConfig(Protocol::kDagWt, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  sys.DrainPropagation();
  Value v = sys.database(0).store().Get(0).value();
  EXPECT_EQ(sys.database(1).store().Get(0).value(), v);
  EXPECT_EQ(sys.database(2).store().Get(0).value(), v);
  // Both replicas saw both versions (two in-place updates each).
  EXPECT_EQ(sys.database(1).store().Version(0), 2);
  EXPECT_EQ(sys.database(2).store().Version(0), 2);
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

TEST(DagWtScenario, EnginesQuiescentAfterDrain) {
  auto system = System::Create(
      ScriptedConfig(Protocol::kDagWt, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  sys.DrainPropagation();
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_TRUE(sys.engine(s).Quiescent()) << "site " << s;
  }
}

TEST(DagWtScenario, BatchingCutsMessagesAndPreservesEverything) {
  // Three sequential updates inside one transport coalescing window
  // travel as one frame per hop instead of three. Both arms run over the
  // transport; data frames are counted there, since the network's
  // message count includes its acks.
  auto run = [](Duration window) {
    SystemConfig config = ScriptedConfig(Protocol::kDagWt, Example11());
    config.batching.window = window;
    config.batching.force_transport = true;
    auto system = System::Create(std::move(config));
    LAZYREP_CHECK(system.ok());
    System& sys = **system;
    for (int i = 0; i < 3; ++i) {
      LAZYREP_CHECK(sys.RunOneTransaction(0, Write({0})).ok());
    }
    sys.DrainPropagation();
    struct Out {
      uint64_t messages;
      Value replica1;
      Value replica2;
      int versions;
      bool serializable;
    };
    return Out{sys.transport()->frames_sent(),
               sys.database(1).store().Get(0).value(),
               sys.database(2).store().Get(0).value(),
               static_cast<int>(sys.database(2).store().Version(0)),
               sys.CheckHistory().serializable};
  };
  auto unbatched = run(0);
  auto batched = run(Millis(100));
  EXPECT_EQ(unbatched.messages, 6u);  // 3 updates x 2 hops.
  EXPECT_LT(batched.messages, unbatched.messages);
  // Same final state; all three versions applied in order.
  EXPECT_EQ(batched.replica1, unbatched.replica1);
  EXPECT_EQ(batched.replica2, unbatched.replica2);
  EXPECT_EQ(batched.versions, 3);
  EXPECT_TRUE(batched.serializable);
}

// -------------------------------------------------------------- DAG(T)

TEST(DagTScenario, TimestampWalkthroughFromSection32) {
  // §3.2's trace on Example 1.1: T1 commits at s1 (site 0) and gets
  // timestamp (s1,1). When T1's secondary commits at s2 (site 1), the
  // site timestamp becomes (s1,1)(s2,0); T2 then commits at s2 with
  // (s1,1)(s2,1).
  auto system = System::Create(
      ScriptedConfig(Protocol::kDagT, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;

  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());  // T1 writes a.
  auto& s0 = dynamic_cast<DagTEngine&>(sys.engine(0));
  EXPECT_EQ(s0.site_timestamp().tuples(),
            (std::vector<TsTuple>{{0, 1}}));

  sys.DrainPropagation();  // T1's secondaries reach s2 and s3.
  auto& s1 = dynamic_cast<DagTEngine&>(sys.engine(1));
  EXPECT_EQ(s1.site_timestamp().tuples(),
            (std::vector<TsTuple>{{0, 1}, {1, 0}}));

  // T2 at s2 reads a (sees T1's value) and writes b.
  ASSERT_TRUE(sys.RunOneTransaction(1, ReadThenWrite(0, 1)).ok());
  EXPECT_EQ(s1.site_timestamp().tuples(),
            (std::vector<TsTuple>{{0, 1}, {1, 1}}));

  sys.DrainPropagation();
  // s3 (site 2) committed T1 then T2 — serializable, converged.
  EXPECT_EQ(sys.database(2).store().Get(0).value(),
            sys.database(0).store().Get(0).value());
  EXPECT_EQ(sys.database(2).store().Get(1).value(),
            sys.database(1).store().Get(1).value());
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

TEST(DagTScenario, DummiesUnblockMultiParentSites) {
  // §3.3's progress example: site 2 has parents {0, 1}. A transaction
  // from site 0 alone cannot execute at site 2 until traffic (a dummy)
  // arrives from site 1 as well.
  auto system = System::Create(
      ScriptedConfig(Protocol::kDagT, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  // Run only briefly: not yet applied at site 2 (queue from site 1 still
  // empty, dummy period is 25 ms).
  sys.simulator().RunUntil(sys.simulator().Now() + Millis(2));
  EXPECT_EQ(sys.database(2).store().Get(0).value(), 0);
  // Drain (dummies flow): now applied.
  sys.DrainPropagation();
  EXPECT_EQ(sys.database(2).store().Get(0).value(),
            sys.database(0).store().Get(0).value());
  uint64_t dummies = 0;
  for (SiteId s = 0; s < 3; ++s) {
    dummies += dynamic_cast<DagTEngine&>(sys.engine(s)).dummies_sent();
  }
  EXPECT_GT(dummies, 0u);
}

TEST(DagTScenario, UpdatesGoDirectlyToReplicaSites) {
  // Unlike DAG(WT), site 0's update is sent straight to both replica
  // sites (plus whatever dummies flow).
  auto system = System::Create(
      ScriptedConfig(Protocol::kDagT, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  sys.DrainPropagation();
  // Messages depart only after the sender's per-message CPU is paid, so
  // the counter is checked after the drain. Direct to sites 1 and 2.
  EXPECT_GE(sys.network().Snapshot().sent_from[0], 2u);
  EXPECT_EQ(sys.database(2).store().Get(0).value(),
            sys.database(0).store().Get(0).value());
}

TEST(DagTScenario, DeltaStampsKeepTheMultiParentSchedule) {
  // §3.3's progress example with traffic on both of site 2's parents:
  // site 1 forwards stamps (s0,k)(s1,j) that share the (s0,k) prefix with
  // site 0's (s0,k), so both channels into site 2 carry deltas against
  // their own previous stamp. Site 2 must end with the site timestamp,
  // applied order and values of a run that ships whole stamps (captured
  // before timestamps travelled as deltas).
  SystemConfig config = ScriptedConfig(Protocol::kDagT, Example11());
  config.enable_trace = true;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  // Deltas posted to site 2, per parent: updates, then dummies.
  int deltas[2][2] = {{0, 0}, {0, 0}};
  sys.network().AddObserver(
      [&deltas](const ProtocolNetwork::Envelope& env, bool delivered) {
        const auto* u = std::get_if<SecondaryUpdate>(&env.payload);
        if (!delivered && env.dst == 2 && u != nullptr && u->ts_shared > 0) {
          ++deltas[env.src][u->is_dummy ? 1 : 0];
        }
      });
  // Site 2's timestamp after each round.
  std::vector<std::string> stamps;
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
    ASSERT_TRUE(sys.RunOneTransaction(1, ReadThenWrite(0, 1)).ok());
    ASSERT_TRUE(sys.RunOneTransaction(1, ReadThenWrite(0, 1)).ok());
    ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
    if (round % 2 == 1) sys.DrainPropagation();
    stamps.push_back(
        dynamic_cast<DagTEngine&>(sys.engine(2)).site_timestamp().ToString());
  }
  sys.DrainPropagation();
  std::vector<GlobalTxnId> applied;
  for (const HistoryRecorder::Record& r : sys.history().records()) {
    if (r.site == 2) applied.push_back(r.origin);
  }
  const auto& s2 = dynamic_cast<DagTEngine&>(sys.engine(2));
  // Both kinds of post took the delta path: site 1's back-to-back
  // updates share the (s0,k) prefix, and site 0's dummies resend it.
  EXPECT_GT(deltas[1][0], 0);
  EXPECT_GT(deltas[0][1], 0);
  EXPECT_EQ(stamps, (std::vector<std::string>{
                        "e0:(s1,1)(s2,0)", "e0:(s0,4)(s1,4)(s2,0)",
                        "e2:(s0,4)(s1,5)(s2,0)", "e2:(s0,8)(s1,8)(s2,0)",
                        "e4:(s0,8)(s1,9)(s2,0)", "e5:(s0,12)(s1,12)(s2,0)"}));
  EXPECT_EQ(s2.site_timestamp().ToString(), "e5:(s0,12)(s1,12)(s2,0)");
  // The order whole stamps give: each site-1 transaction ahead of the
  // site-0 transaction with the same sequence number.
  std::vector<GlobalTxnId> expected;
  for (int64_t k = 0; k < 12; ++k) {
    expected.push_back({1, k});
    expected.push_back({0, k});
  }
  EXPECT_EQ(applied, expected);
  EXPECT_EQ(sys.database(2).store().Get(0).value(),
            sys.database(0).store().Get(0).value());
  EXPECT_EQ(sys.database(2).store().Get(1).value(),
            sys.database(1).store().Get(1).value());
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

// ------------------------------------------------------------ BackEdge

TEST(BackEdgeScenario, BackedgeUpdateCommitsViaTwoPhaseCommit) {
  // Site 1 updates item 1, whose replica lives at site 0 — a tree
  // ancestor. The eager path must update it atomically with the commit.
  auto system = System::Create(
      ScriptedConfig(Protocol::kBackEdge, Example41()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(1, Write({1})).ok());
  sys.DrainPropagation();
  EXPECT_EQ(sys.database(0).store().Get(1).value(),
            sys.database(1).store().Get(1).value());
  auto& engine1 = dynamic_cast<BackEdgeEngine&>(sys.engine(1));
  EXPECT_EQ(engine1.backedge_txns(), 1u);
  EXPECT_TRUE(sys.CheckHistory().serializable);
  for (SiteId s = 0; s < 2; ++s) {
    EXPECT_TRUE(sys.engine(s).Quiescent());
  }
}

TEST(BackEdgeScenario, DownhillUpdateStaysLazy) {
  auto system = System::Create(
      ScriptedConfig(Protocol::kBackEdge, Example41()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  sys.DrainPropagation();
  EXPECT_EQ(sys.database(1).store().Get(0).value(),
            sys.database(0).store().Get(0).value());
  auto& engine0 = dynamic_cast<BackEdgeEngine&>(sys.engine(0));
  EXPECT_EQ(engine0.backedge_txns(), 0u);
  // One lazy secondary message only — no 2PC traffic.
  EXPECT_EQ(sys.network().Snapshot().total_messages, 1u);
}

TEST(BackEdgeScenario, Example41GlobalDeadlockResolvedPerPaper) {
  // §4.1's trace: T1 at s1 reads b and updates a; T2 at s2 reads a and
  // updates b, concurrently. T2 goes backedge-pending (its update to b
  // must reach s1 eagerly); T1 commits and its secondary for a blocks on
  // T2's read lock at s2; the timeout fires and — per the paper — T2,
  // the backedge-pending transaction, is aborted, never T1's secondary.
  auto system = System::Create(
      ScriptedConfig(Protocol::kBackEdge, Example41()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  sys.StartEngines();
  Status st1 = Status::Internal("unset"), st2 = Status::Internal("unset");
  // Launch both transactions at t=0 through their engines.
  auto launch = [&sys](SiteId site, TxnSpec spec, Status* out) {
    sys.simulator().Spawn(
        [](System* s, SiteId at, TxnSpec sp, Status* o) -> sim::Co<void> {
          *o = co_await s->engine(at).ExecutePrimary(
              GlobalTxnId{at, 1000}, sp);
        }(&sys, site, std::move(spec), out));
  };
  launch(0, ReadThenWrite(/*read b=*/1, /*write a=*/0), &st1);
  launch(1, ReadThenWrite(/*read a=*/0, /*write b=*/1), &st2);
  sys.simulator().Run();  // BackEdge has no periodic processes.

  // T1 has no backedge subtransaction and commits; T2 is the victim.
  EXPECT_TRUE(st1.ok()) << st1.ToString();
  EXPECT_TRUE(st2.IsAbort()) << st2.ToString();
  sys.DrainPropagation();
  // T1's update to a reached s2; b was rolled back everywhere.
  EXPECT_EQ(sys.database(1).store().Get(0).value(),
            sys.database(0).store().Get(0).value());
  EXPECT_EQ(sys.database(0).store().Get(1).value(), 0);
  EXPECT_EQ(sys.database(1).store().Get(1).value(), 0);
  EXPECT_TRUE(sys.CheckHistory().serializable);
  for (SiteId s = 0; s < 2; ++s) {
    EXPECT_TRUE(sys.engine(s).Quiescent());
  }
}

TEST(BackEdgeScenario, ProxyRollbackIsInFlightUntilItsAbortEnds) {
  // Example 4.1 again: T2's abort reaches its finished proxy at site 0,
  // which is erased before its rollback runs. Until that rollback ends,
  // site 0 must not read quiescent.
  auto system = System::Create(
      ScriptedConfig(Protocol::kBackEdge, Example41()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  sys.StartEngines();
  Status st1 = Status::Internal("unset"), st2 = Status::Internal("unset");
  auto launch = [&sys](SiteId site, TxnSpec spec, Status* out) {
    sys.simulator().Spawn(
        [](System* s, SiteId at, TxnSpec sp, Status* o) -> sim::Co<void> {
          *o = co_await s->engine(at).ExecutePrimary(
              GlobalTxnId{at, 1000}, sp);
        }(&sys, site, std::move(spec), out));
  };
  launch(0, ReadThenWrite(/*read b=*/1, /*write a=*/0), &st1);
  launch(1, ReadThenWrite(/*read a=*/0, /*write b=*/1), &st2);
  // The primaries themselves are not engine work; check once both ended.
  ExpectQuiescentSitesIdle(sys, 200000, [&] {
    return st1.code() != StatusCode::kInternal &&
           st2.code() != StatusCode::kInternal;
  });
  EXPECT_TRUE(st2.IsAbort()) << st2.ToString();
}

TEST(BackEdgeScenario, ConcurrentBackedgeTransactionsBothCommit) {
  // Two site-1 transactions with disjoint backedge targets pend at the
  // same time; the applier serializes their specials/2PCs and both
  // commit.
  graph::Placement p;
  p.num_sites = 2;
  p.num_items = 3;
  p.primary = {0, 1, 1};
  p.replicas = {{1}, {0}, {0}};  // Items 1 and 2 backedge to site 0.
  auto system = System::Create(ScriptedConfig(Protocol::kBackEdge, p));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  sys.StartEngines();
  Status st1 = Status::Internal("unset"), st2 = Status::Internal("unset");
  auto launch = [&sys](int64_t seq, TxnSpec spec, Status* out) {
    sys.simulator().Spawn(
        [](System* s, int64_t q, TxnSpec sp, Status* o) -> sim::Co<void> {
          *o = co_await s->engine(1).ExecutePrimary(GlobalTxnId{1, q}, sp);
        }(&sys, seq, std::move(spec), out));
  };
  launch(1, Write({1}), &st1);
  launch(2, Write({2}), &st2);
  sys.simulator().Run();
  sys.DrainPropagation();
  EXPECT_TRUE(st1.ok()) << st1.ToString();
  EXPECT_TRUE(st2.ok()) << st2.ToString();
  EXPECT_EQ(sys.database(0).store().Get(1).value(),
            sys.database(1).store().Get(1).value());
  EXPECT_EQ(sys.database(0).store().Get(2).value(),
            sys.database(1).store().Get(2).value());
  auto& engine1 = dynamic_cast<BackEdgeEngine&>(sys.engine(1));
  EXPECT_EQ(engine1.backedge_txns(), 2u);
  EXPECT_TRUE(sys.CheckHistory().serializable);
  EXPECT_TRUE(sys.engine(0).Quiescent());
  EXPECT_TRUE(sys.engine(1).Quiescent());
}

TEST(BackEdgeScenario, BackedgeSubtransactionVictimizesRemotePrimary) {
  // The other half of the victim rule: the backedge subtransaction at the
  // remote site is a secondary-class waiter, so when it blocks on a local
  // primary holding the replica lock past the timeout, it kills the
  // HOLDER and proceeds — the origin transaction commits.
  auto system = System::Create(
      ScriptedConfig(Protocol::kBackEdge, Example41()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  sys.StartEngines();
  // A raw site-0 transaction camps on item 1's replica for 300 ms (well
  // past the 50 ms timeout).
  storage::TxnPtr camper;
  sys.simulator().Spawn(
      [](System* s, storage::TxnPtr* out) -> sim::Co<void> {
        storage::TxnPtr t = s->database(0).Begin(
            GlobalTxnId{0, 900}, storage::TxnKind::kPrimary);
        *out = t;
        Status st = co_await s->database(0).Write(t, 1, 42);
        LAZYREP_CHECK(st.ok());
        co_await s->simulator().Delay(Millis(300));
        if (t->abort_requested()) {
          co_await s->database(0).Abort(t);
        } else {
          (void)co_await s->database(0).Commit(t);
        }
      }(&sys, &camper));
  Status st2 = Status::Internal("unset");
  sys.simulator().Spawn(
      [](System* s, Status* out) -> sim::Co<void> {
        co_await s->simulator().Delay(Millis(1));
        TxnSpec spec;
        spec.ops.push_back({true, 1});  // Backedge write.
        *out = co_await s->engine(1).ExecutePrimary(GlobalTxnId{1, 901},
                                                    spec);
      }(&sys, &st2));
  sys.simulator().Run();
  sys.DrainPropagation();
  EXPECT_TRUE(st2.ok()) << st2.ToString();
  ASSERT_NE(camper, nullptr);
  EXPECT_TRUE(camper->abort_requested());  // The holder was the victim.
  EXPECT_EQ(sys.database(0).store().Get(1).value(),
            sys.database(1).store().Get(1).value());
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

TEST(BackEdgeScenario, MultiHopSpecialTraversesThePath) {
  // Chain 0-1-2-3; site 3 writes an item replicated at 0 and 2: the
  // special subtransaction executes at 0, relays through 1 (no replica)
  // and 2 (replica), and the 2PC commits all of them.
  graph::Placement p;
  p.num_sites = 4;
  p.num_items = 4;
  p.primary = {3, 0, 1, 2};           // Item 0 owned by site 3.
  p.replicas = {{0, 2}, {1}, {2}, {3}};
  auto system = System::Create(ScriptedConfig(Protocol::kBackEdge, p));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(3, Write({0})).ok());
  sys.DrainPropagation();
  Value v = sys.database(3).store().Get(0).value();
  EXPECT_NE(v, 0);
  EXPECT_EQ(sys.database(0).store().Get(0).value(), v);
  EXPECT_EQ(sys.database(2).store().Get(0).value(), v);
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

// ------------------------------------------------------------------ PSL

TEST(PslScenario, RemoteReadLeavesReplicaUntouched) {
  auto system = System::Create(
      ScriptedConfig(Protocol::kPsl, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  // Site 2 reads item 0 — a replica there, so the read goes to site 0.
  TxnSpec read_a;
  read_a.ops.push_back({false, 0});
  ASSERT_TRUE(sys.RunOneTransaction(2, read_a).ok());
  sys.DrainPropagation();
  auto& engine2 = dynamic_cast<PslEngine&>(sys.engine(2));
  EXPECT_EQ(engine2.remote_reads(), 1u);
  // The local replica copy was never written (version 0, value 0).
  EXPECT_EQ(sys.database(2).store().Version(0), 0);
  EXPECT_EQ(sys.database(2).store().Get(0).value(), 0);
  EXPECT_TRUE(sys.CheckHistory().serializable);
  EXPECT_TRUE(engine2.Quiescent());
  EXPECT_TRUE(sys.engine(0).Quiescent());  // Proxy released.
}

TEST(PslScenario, ProxyReleaseIsInFlightUntilItsCommitEnds) {
  // Site 2's remote read leaves a proxy at site 0, released once the
  // reader commits. The release erases the proxy before awaiting its
  // commit; until that commit ends, site 0 must not read quiescent.
  auto system = System::Create(
      ScriptedConfig(Protocol::kPsl, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  TxnSpec read_a;
  read_a.ops.push_back({false, 0});
  ASSERT_TRUE(sys.RunOneTransaction(2, read_a).ok());
  ExpectQuiescentSitesIdle(sys, 20000, [] { return true; });
}

TEST(PslScenario, LocalReadsNeverContactTheNetwork) {
  auto system = System::Create(
      ScriptedConfig(Protocol::kPsl, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  TxnSpec spec = ReadThenWrite(0, 0);  // Item 0 is local at site 0.
  ASSERT_TRUE(sys.RunOneTransaction(0, spec).ok());
  EXPECT_EQ(sys.network().Snapshot().total_messages, 0u);
}

TEST(PslScenario, ConflictSerializedAtThePrimary) {
  // Site 2 reads item 0 remotely, then site 0 writes it, then site 2
  // reads again — the conflicts are recorded at the primary site and the
  // combined history is serializable.
  auto system = System::Create(
      ScriptedConfig(Protocol::kPsl, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  TxnSpec read_a;
  read_a.ops.push_back({false, 0});
  ASSERT_TRUE(sys.RunOneTransaction(2, read_a).ok());
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  ASSERT_TRUE(sys.RunOneTransaction(2, read_a).ok());
  sys.DrainPropagation();
  SerializabilityVerdict verdict = sys.CheckHistory();
  EXPECT_TRUE(verdict.serializable);
  EXPECT_GE(verdict.edges, 2u);  // r->w and w->r at the primary.
}

TEST(PslScenario, RemoteLockDenialAbortsTheRequester) {
  // A site-0 transaction holds X on item 0 for longer than the 50 ms
  // lock timeout; a site-2 remote read of item 0 is denied at the
  // primary and the requester aborts — the PSL global-deadlock
  // mechanism.
  auto system = System::Create(
      ScriptedConfig(Protocol::kPsl, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  sys.StartEngines();
  Status reader_status = Status::Internal("pending");
  // Holder: a raw database transaction that sits on the lock for 200 ms.
  sys.simulator().Spawn(
      [](System* s) -> sim::Co<void> {
        storage::TxnPtr holder = s->database(0).Begin(
            GlobalTxnId{0, 500}, storage::TxnKind::kPrimary);
        Status st = co_await s->database(0).Write(holder, 0, 1);
        LAZYREP_CHECK(st.ok());
        co_await s->simulator().Delay(Millis(200));
        co_await s->database(0).Abort(holder);
      }(&sys));
  sys.simulator().Spawn(
      [](System* s, Status* out) -> sim::Co<void> {
        co_await s->simulator().Delay(Millis(1));
        workload::TxnSpec read_a;
        read_a.ops.push_back({false, 0});
        *out = co_await s->engine(2).ExecutePrimary(GlobalTxnId{2, 1},
                                                    read_a);
      }(&sys, &reader_status));
  sys.simulator().Run();
  EXPECT_TRUE(reader_status.IsAbort()) << reader_status.ToString();
  sys.DrainPropagation();
  // Proxies cleaned up on both ends.
  EXPECT_TRUE(sys.engine(0).Quiescent());
  EXPECT_TRUE(sys.engine(2).Quiescent());
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

// ---------------------------------------------------------------- Eager

TEST(EagerScenario, ReplicasUpdatedBeforeCommitCompletes) {
  auto system = System::Create(
      ScriptedConfig(Protocol::kEager, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  // The transaction only returns after the 2PC decision: replicas are
  // already current with no further drain needed for data (acks may
  // still be in flight).
  Value v = sys.database(0).store().Get(0).value();
  EXPECT_EQ(sys.database(1).store().Get(0).value(), v);
  EXPECT_EQ(sys.database(2).store().Get(0).value(), v);
  sys.DrainPropagation();
  EXPECT_TRUE(sys.CheckHistory().serializable);
}

// ------------------------------------------------------------ NaiveLazy

TEST(NaiveScenario, DirectFanoutWithoutOrderingControl) {
  auto system = System::Create(
      ScriptedConfig(Protocol::kNaiveLazy, Example11()));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  ASSERT_TRUE(sys.RunOneTransaction(0, Write({0})).ok());
  sys.DrainPropagation();
  // Direct to both replica holders (like DAG(T), unlike DAG(WT));
  // counted after the drain since departure follows the send CPU charge.
  EXPECT_EQ(sys.network().Snapshot().sent_from[0], 2u);
  EXPECT_EQ(sys.database(2).store().Get(0).value(),
            sys.database(0).store().Get(0).value());
}

}  // namespace
}  // namespace lazyrep::core
