// Fault-injection & crash-recovery tests (src/fault):
//
//  - FaultPlan::Parse grammar and error cases.
//  - System::Create validation of crash-fault configurations.
//  - ReliableTransport unit tests over a lossy Network: exactly-once FIFO
//    restored under drop/dup/delay, and down-site parking + FlushPending.
//  - The chaos tier: all three lazy tree protocols × 5 seeds ×
//    {drop 1%, dup 1%, one mid-run crash+restart}, on both the sim and
//    the threads runtime, asserting global serializability, convergence,
//    and that the crashed site's final store equals a fresh Wal::Replay.
//    The sim tier runs each protocol again with transport frame
//    coalescing on (`*WithCoalescing`). A third variant (ChaosWorkers*)
//    reruns the threads tier with four worker lanes per machine — real
//    intra-site parallelism.
//
// CI runs this binary once per runtime via --gtest_filter (ChaosSim* /
// ChaosThreads* / ChaosWorkers*); a plain run covers all.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/messages.h"
#include "core/system.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/reliable_transport.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "runtime/sim_runtime.h"
#include "storage/item_store.h"
#include "storage/wal.h"

namespace lazyrep {
namespace {

using core::Protocol;
using core::ProtocolMessage;
using core::ProtocolNetwork;
using fault::CrashEvent;
using fault::FaultInjector;
using fault::FaultPlan;
using fault::ReliableTransport;
using runtime::RuntimeKind;
using runtime::SimRuntime;
using sim::Simulator;

// ---------------------------------------------------------------------
// FaultPlan::Parse

TEST(FaultPlanTest, ParsesFullSpec) {
  auto plan = FaultPlan::Parse("drop:0.01,dup:0.02,delay:2ms,crash:1@500ms");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_DOUBLE_EQ(plan->drop_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan->dup_prob, 0.02);
  EXPECT_EQ(plan->extra_delay_max, Millis(2));
  ASSERT_EQ(plan->crashes.size(), 1u);
  EXPECT_EQ(plan->crashes[0].site, 1);
  EXPECT_EQ(plan->crashes[0].at, Millis(500));
  EXPECT_EQ(plan->crashes[0].down_for, Millis(100));  // Default outage.
  EXPECT_TRUE(plan->enabled());
  EXPECT_TRUE(plan->network_faults());
}

TEST(FaultPlanTest, ParsesCrashWithExplicitOutageAndUnits) {
  auto plan = FaultPlan::Parse("crash:2@1s+250ms,crash:0@500us");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->crashes.size(), 2u);
  EXPECT_EQ(plan->crashes[0].site, 2);
  EXPECT_EQ(plan->crashes[0].at, Seconds(1));
  EXPECT_EQ(plan->crashes[0].down_for, Millis(250));
  EXPECT_EQ(plan->crashes[1].site, 0);
  EXPECT_EQ(plan->crashes[1].at, Micros(500));
  EXPECT_FALSE(plan->network_faults());  // Crashes only.
  EXPECT_TRUE(plan->enabled());
}

TEST(FaultPlanTest, EmptySpecIsDisabled) {
  auto plan = FaultPlan::Parse("");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->enabled());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(FaultPlan::Parse("drop").ok());         // No colon.
  EXPECT_FALSE(FaultPlan::Parse("warp:0.5").ok());     // Unknown key.
  EXPECT_FALSE(FaultPlan::Parse("drop:1.5").ok());     // Out of [0,1].
  EXPECT_FALSE(FaultPlan::Parse("dup:-0.1").ok());     // Out of [0,1].
  EXPECT_FALSE(FaultPlan::Parse("delay:fast").ok());   // Bad duration.
  EXPECT_FALSE(FaultPlan::Parse("delay:5parsec").ok());  // Bad unit.
  EXPECT_FALSE(FaultPlan::Parse("crash:1").ok());      // Missing @T.
}

// ---------------------------------------------------------------------
// System::Create validation of crash faults.

core::SystemConfig CrashConfig(Protocol protocol) {
  core::SystemConfig config = harness::PaperConfig(protocol);
  config.enable_wal = true;
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, Millis(500), Millis(100)});
  config.faults = plan;
  return config;
}

void ExpectRejected(core::SystemConfig config, const std::string& needle) {
  auto system = core::System::Create(std::move(config));
  ASSERT_FALSE(system.ok());
  EXPECT_NE(system.status().ToString().find(needle), std::string::npos)
      << system.status().ToString();
}

TEST(FaultValidationTest, CrashRequiresWal) {
  core::SystemConfig config = CrashConfig(Protocol::kBackEdge);
  config.enable_wal = false;
  ExpectRejected(std::move(config), "enable_wal");
}

TEST(FaultValidationTest, CrashRequiresLazyTreeProtocol) {
  ExpectRejected(CrashConfig(Protocol::kEager), "lazy tree protocols");
}

TEST(FaultValidationTest, CrashSiteMustExist) {
  core::SystemConfig config = CrashConfig(Protocol::kBackEdge);
  config.faults->crashes[0].site = config.workload.num_sites;
  ExpectRejected(std::move(config), "out of range");
}

TEST(FaultValidationTest, CrashTimesMustBePositive) {
  core::SystemConfig config = CrashConfig(Protocol::kBackEdge);
  config.faults->crashes[0].at = 0;
  ExpectRejected(std::move(config), "positive");
}

// ---------------------------------------------------------------------
// ReliableTransport over a lossy network (sim unit tests).

core::SecondaryUpdate MakeUpdate(int64_t seq) {
  core::SecondaryUpdate update;
  update.origin = GlobalTxnId{0, seq};
  core::WriteRecord write;
  write.item = static_cast<ItemId>(seq % 8);
  write.value = seq * 10;
  update.writes.push_back(write);
  return update;
}

int64_t UpdateSeq(const ProtocolMessage& message) {
  const auto* update = std::get_if<core::SecondaryUpdate>(&message);
  return update != nullptr ? update->origin.seq : -1;
}

TEST(ReliableTransportTest, RestoresExactlyOnceFifoUnderDropDupDelay) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork::Config cfg;
  cfg.latency = Millis(0.15);
  ProtocolNetwork net(&rt, 2, cfg, {nullptr, nullptr}, Rng(11));

  FaultPlan plan;
  plan.drop_prob = 0.2;  // Aggressive — every ~5th frame or ack lost.
  plan.dup_prob = 0.2;
  plan.extra_delay_max = Millis(1);
  FaultInjector injector(&rt, plan, /*num_sites=*/2, Rng(12));
  net.SetFaultHook(
      [&](SiteId src, SiteId dst) { return injector.Roll(src, dst); });

  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2);
  std::vector<int64_t> got;
  transport.SetHandler(1, [&](SiteId src, ProtocolMessage message, bool) {
    EXPECT_EQ(src, 0);
    got.push_back(UpdateSeq(message));
  });
  constexpr int kMessages = 50;
  for (int64_t i = 0; i < kMessages; ++i) {
    transport.Post(0, 1, ProtocolMessage(MakeUpdate(i)));
  }
  sim.Run();

  // Exactly once, in order, despite the lossy wire underneath.
  ASSERT_EQ(got.size(), static_cast<size_t>(kMessages));
  for (int64_t i = 0; i < kMessages; ++i) EXPECT_EQ(got[i], i);
  EXPECT_TRUE(transport.Quiescent());
  ProtocolNetwork::Stats stats = net.Snapshot();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(transport.retransmissions(), 0u);
  EXPECT_GT(transport.duplicates_discarded(), 0u);
}

TEST(ReliableTransportTest, ParksFramesForDownSiteAndFlushesInOrder) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork net(&rt, 2, ProtocolNetwork::Config{}, {nullptr, nullptr},
                      Rng(3));
  FaultInjector injector(&rt, FaultPlan{}, /*num_sites=*/2, Rng(4));
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2);
  std::vector<int64_t> got;
  transport.SetHandler(1, [&](SiteId, ProtocolMessage message, bool) {
    got.push_back(UpdateSeq(message));
  });

  injector.SetDown(1);
  for (int64_t i = 0; i < 5; ++i) {
    transport.Post(0, 1, ProtocolMessage(MakeUpdate(i)));
  }
  sim.Run();
  // Frames arrived (and were acked — the transport is durable), but
  // engine delivery is gated while the site is down.
  EXPECT_TRUE(got.empty());
  EXPECT_FALSE(transport.Quiescent());  // Pending deliveries outstanding.

  injector.SetUp(1);
  transport.FlushPending(1);
  ASSERT_EQ(got.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(got[i], i);
  EXPECT_TRUE(transport.Quiescent());
}

// Regression: a Post arriving after BeginShutdown used to enqueue a
// sequenced frame without a retransmitter behind it — if the wire then
// dropped the frame, the channel (and Quiescent) stalled forever. The
// post must be refused outright. The drop-everything plan makes the
// pre-fix bug deterministic: the orphaned frame can never be acked.
TEST(ReliableTransportTest, PostAfterShutdownIsRefusedNotStalled) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork net(&rt, 2, ProtocolNetwork::Config{}, {nullptr, nullptr},
                      Rng(7));
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector injector(&rt, plan, /*num_sites=*/2, Rng(8));
  net.SetFaultHook(
      [&](SiteId src, SiteId dst) { return injector.Roll(src, dst); });
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2);
  std::vector<int64_t> got;
  transport.SetHandler(1, [&](SiteId, ProtocolMessage message, bool) {
    got.push_back(UpdateSeq(message));
  });

  transport.BeginShutdown();
  transport.Post(0, 1, ProtocolMessage(MakeUpdate(0)));
  sim.Run();

  EXPECT_TRUE(got.empty());
  EXPECT_EQ(transport.posts_refused(), 1u);
  EXPECT_EQ(transport.frames_sent(), 0u);
  EXPECT_TRUE(transport.Quiescent());
}

// ---------------------------------------------------------------------
// Batching-layer unit tests (docs/PERFORMANCE.md §6).

TEST(ReliableTransportBatchingTest, CoalescesPostsPreservingFifoAndBatchEnd) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork net(&rt, 2, ProtocolNetwork::Config{}, {nullptr, nullptr},
                      Rng(21));
  FaultInjector injector(&rt, FaultPlan{}, /*num_sites=*/2, Rng(22));
  ReliableTransport::Config cfg;
  cfg.batch_window = Millis(1);
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2, cfg);
  std::vector<std::pair<int64_t, bool>> got;
  transport.SetHandler(1, [&](SiteId, ProtocolMessage message,
                              bool batch_end) {
    got.emplace_back(UpdateSeq(message), batch_end);
  });

  constexpr int kMessages = 10;
  for (int64_t i = 0; i < kMessages; ++i) {
    transport.Post(0, 1, ProtocolMessage(MakeUpdate(i)));
  }
  sim.Run();

  // All ten posts landed in the window before it fired: one batch frame,
  // FIFO order intact, batch_end true only on the final inner message.
  ASSERT_EQ(got.size(), static_cast<size_t>(kMessages));
  for (int64_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(got[i].first, i);
    EXPECT_EQ(got[i].second, i == kMessages - 1);
  }
  EXPECT_EQ(transport.frames_sent(), 1u);
  EXPECT_EQ(transport.batch_frames_sent(), 1u);
  EXPECT_TRUE(transport.Quiescent());
}

TEST(ReliableTransportBatchingTest, SingleBufferedPostShipsAsPlainData) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork net(&rt, 2, ProtocolNetwork::Config{}, {nullptr, nullptr},
                      Rng(23));
  FaultInjector injector(&rt, FaultPlan{}, /*num_sites=*/2, Rng(24));
  ReliableTransport::Config cfg;
  cfg.batch_window = Millis(1);
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2, cfg);
  std::vector<std::pair<int64_t, bool>> got;
  transport.SetHandler(1, [&](SiteId, ProtocolMessage message,
                              bool batch_end) {
    got.emplace_back(UpdateSeq(message), batch_end);
  });

  transport.Post(0, 1, ProtocolMessage(MakeUpdate(42)));
  sim.Run();

  // A lone message needs no batch framing: it ships as ReliableData and
  // arrives as its own batch (batch_end = true).
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 42);
  EXPECT_TRUE(got[0].second);
  EXPECT_EQ(transport.frames_sent(), 1u);
  EXPECT_EQ(transport.batch_frames_sent(), 0u);
  EXPECT_TRUE(transport.Quiescent());
}

// Two-way bursty traffic with coalescing + piggybacking over a lossy
// wire: both directions must stay exactly-once FIFO, and the reverse
// data frames must have absorbed most of the ack traffic.
runtime::Co<void> PostBursts(runtime::Runtime* rt,
                             ReliableTransport* transport) {
  for (int64_t round = 0; round < 10; ++round) {
    for (int64_t i = 0; i < 5; ++i) {
      transport->Post(0, 1, ProtocolMessage(MakeUpdate(round * 5 + i)));
      transport->Post(1, 0, ProtocolMessage(MakeUpdate(1000 + round * 5 + i)));
    }
    co_await rt->Delay(Millis(2));
  }
}

TEST(ReliableTransportBatchingTest, PiggybackedExactlyOnceUnderDropDup) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork::Config net_cfg;
  net_cfg.latency = Millis(0.15);
  ProtocolNetwork net(&rt, 2, net_cfg, {nullptr, nullptr}, Rng(31));
  FaultPlan plan;
  plan.drop_prob = 0.15;
  plan.dup_prob = 0.15;
  FaultInjector injector(&rt, plan, /*num_sites=*/2, Rng(32));
  net.SetFaultHook(
      [&](SiteId src, SiteId dst) { return injector.Roll(src, dst); });
  ReliableTransport::Config cfg;
  cfg.batch_window = Millis(0.5);
  cfg.piggyback_acks = true;
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2, cfg);
  std::vector<int64_t> got_at_1;
  std::vector<int64_t> got_at_0;
  transport.SetHandler(1, [&](SiteId, ProtocolMessage message, bool) {
    got_at_1.push_back(UpdateSeq(message));
  });
  transport.SetHandler(0, [&](SiteId, ProtocolMessage message, bool) {
    got_at_0.push_back(UpdateSeq(message));
  });

  rt.Spawn(PostBursts(&rt, &transport));
  sim.Run();

  ASSERT_EQ(got_at_1.size(), 50u);
  ASSERT_EQ(got_at_0.size(), 50u);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(got_at_1[i], i);
    EXPECT_EQ(got_at_0[i], 1000 + i);
  }
  EXPECT_TRUE(transport.Quiescent());
  EXPECT_GT(transport.batch_frames_sent(), 0u);
  EXPECT_GT(transport.retransmissions(), 0u);
  EXPECT_GT(transport.acks_piggybacked(), 0u);
  // The point of piggybacking: reverse data carries the acks, so the
  // standalone-ack fallback fires only on genuinely quiet channels.
  EXPECT_LT(transport.acks_standalone(), transport.acks_piggybacked());
}

// ---------------------------------------------------------------------
// Chaos tier: protocols × seeds × {drop 1%, dup 1%, mid-run crash}.

struct ChaosCounters {
  uint64_t dropped = 0;
  uint64_t retransmissions = 0;
  uint64_t duplicates_discarded = 0;
  uint64_t batch_frames = 0;
};

// TSan slows the executors by an order of magnitude, and the threads
// chaos config is paced in real time: dummy/epoch periods, lock-wait
// timeouts and the crash schedule all assume uninstrumented speed. On a
// loaded CI core the instrumented consumers fall behind the periodic
// producers, queues grow without bound, and the run never quiesces (the
// unbounded backlog drain is also what used to overflow the coroutine
// stack before the resume trampoline in sim/co.h). Dilating every
// real-time constant by the instrumentation slowdown keeps the relative
// dynamics — crash mid-run, timeouts long against message latency —
// identical while giving the executors time to keep up.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
constexpr int64_t kChaosTimeDilation = 10;
#else
constexpr int64_t kChaosTimeDilation = 1;
#endif

// `window` > 0 turns on transport frame coalescing, so frames buffered
// for the coalescing window ride through the crash as well.
core::SystemConfig ChaosConfig(Protocol protocol, RuntimeKind kind,
                               uint64_t seed, int workers = 1,
                               Duration window = 0) {
  core::SystemConfig config = harness::PaperConfig(protocol);
  config.runtime = kind;
  config.seed = seed;
  config.workers_per_site = workers;
  config.enable_wal = true;
  config.batching.window = window;
  if (protocol != Protocol::kBackEdge) {
    config.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
  }
  FaultPlan plan;
  plan.drop_prob = 0.01;
  plan.dup_prob = 0.01;
  if (kind == RuntimeKind::kSim) {
    // ~1.3 s of virtual workload; the crash lands mid-run. (No dilation:
    // the sim clock is virtual, so instrumentation cannot distort it.)
    config.workload.txns_per_thread = 40;
    plan.crashes.push_back(CrashEvent{2, Millis(500), Millis(100)});
  } else {
    // The threads backend runs near real time — a shorter workload and
    // an earlier crash keep the outage inside the run.
    const int64_t d = kChaosTimeDilation;
    config.workload.txns_per_thread = 10;
    config.workload.deadlock_timeout *= d;
    config.engine.epoch_period *= d;
    config.engine.dummy_period *= d;
    plan.crashes.push_back(CrashEvent{2, d * Millis(150), d * Millis(100)});
  }
  config.faults = plan;
  return config;
}

// Runs one chaos configuration and asserts the paper's correctness
// properties: the history stays globally serializable, every replica
// converges, and the crashed site's final store is exactly what
// Wal::Replay reconstructs (recovery really did come from the log).
void RunChaos(Protocol protocol, RuntimeKind kind, uint64_t seed,
              ChaosCounters* counters, int workers = 1,
              Duration window = 0) {
  SCOPED_TRACE("protocol=" + core::ProtocolName(protocol) +
               " seed=" + std::to_string(seed) +
               " workers=" + std::to_string(workers) +
               " window_ns=" + std::to_string(window));
  core::SystemConfig config =
      ChaosConfig(protocol, kind, seed, workers, window);
  const SiteId crash_site = config.faults->crashes[0].site;
  auto system = core::System::Create(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  core::System& sys = **system;
  core::RunMetrics m = sys.Run();

  EXPECT_FALSE(m.timed_out);
  EXPECT_GT(m.committed, 0);
  EXPECT_TRUE(m.serializable) << m.verdict;
  EXPECT_TRUE(m.reads_consistent);
  EXPECT_TRUE(m.converged);

  ASSERT_NE(sys.injector(), nullptr);
  EXPECT_TRUE(sys.injector()->AllUp());
  ASSERT_NE(sys.transport(), nullptr);
  EXPECT_TRUE(sys.transport()->Quiescent());

  // The crashed site resumed propagation: its replicas converged (checked
  // above) and its WAL replays to exactly the final store image.
  storage::Database& db = sys.database(crash_site);
  ASSERT_NE(db.wal(), nullptr);
  storage::ItemStore replayed;
  for (const auto& [item, value] : db.store().Snapshot()) {
    replayed.AddItem(item, 0);
  }
  db.wal()->Replay(&replayed);
  EXPECT_EQ(replayed.Snapshot(), db.store().Snapshot());

  if (counters != nullptr) {
    counters->dropped += sys.network().Snapshot().dropped;
    counters->retransmissions += sys.transport()->retransmissions();
    counters->duplicates_discarded +=
        sys.transport()->duplicates_discarded();
    counters->batch_frames += sys.transport()->batch_frames_sent();
  }
}

// The sim chaos tier over seeds 1..5 at one coalescing window (0 = off).
void RunChaosSimSeeds(Protocol protocol, Duration window) {
  ChaosCounters counters;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunChaos(protocol, RuntimeKind::kSim, seed, &counters, /*workers=*/1,
             window);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // With 1% drop/dup over thousands of frames, every protocol must have
  // actually exercised the loss path across the seed set.
  EXPECT_GT(counters.dropped, 0u);
  EXPECT_GT(counters.retransmissions, 0u);
  EXPECT_GT(counters.duplicates_discarded, 0u);
  // The coalescing arm really shipped coalesced frames.
  if (window > 0) {
    EXPECT_GT(counters.batch_frames, 0u);
  }
}

class ChaosSimTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ChaosSimTest, SerializableAndConvergedAcrossSeeds) {
  RunChaosSimSeeds(GetParam(), /*window=*/0);
}

// The same runs with transport frame coalescing on: the one in-ctest
// check of WAL replay under a crash with frames buffered in the
// transport.
TEST_P(ChaosSimTest, SerializableAndConvergedWithCoalescing) {
  RunChaosSimSeeds(GetParam(), Millis(2));
}

// Same seed twice: the sim schedule — faults, crash, recovery and all —
// must be bit-for-bit deterministic.
TEST(ChaosSimTest, FaultScheduleIsDeterministic) {
  core::RunMetrics runs[2];
  for (int i = 0; i < 2; ++i) {
    auto system = core::System::Create(
        ChaosConfig(Protocol::kBackEdge, RuntimeKind::kSim, 1));
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    runs[i] = (*system)->Run();
  }
  EXPECT_EQ(runs[0].committed, runs[1].committed);
  EXPECT_EQ(runs[0].aborted, runs[1].aborted);
  EXPECT_EQ(runs[0].messages, runs[1].messages);
  EXPECT_EQ(runs[0].bytes, runs[1].bytes);
  EXPECT_EQ(runs[0].workload_elapsed, runs[1].workload_elapsed);
  EXPECT_EQ(runs[0].drain_elapsed, runs[1].drain_elapsed);
}

class ChaosThreadsTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ChaosThreadsTest, SerializableAndConvergedAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    RunChaos(GetParam(), RuntimeKind::kThreads, seed, nullptr);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Multi-worker chaos: the same faulted runs with four worker lanes per
// machine, the configuration the intra-site parallelism work exists for.
// Transactions of one site now really run concurrently (mobile engines
// hop to the home lane before committing/posting), so this is the chaos
// tier that exercises the striped lock table and the cross-lane
// primitives under drop/dup/crash — and the tier CI runs under TSan.
class ChaosWorkersTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(ChaosWorkersTest, SerializableAndConvergedWithFourLanes) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    RunChaos(GetParam(), RuntimeKind::kThreads, seed, nullptr,
             /*workers=*/4);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// gtest parameter names must be alphanumeric — "DAG(WT)" is not.
std::string ProtocolParamName(
    const ::testing::TestParamInfo<Protocol>& info) {
  switch (info.param) {
    case Protocol::kDagWt: return "DagWt";
    case Protocol::kDagT: return "DagT";
    case Protocol::kBackEdge: return "BackEdge";
    default: return "Other";
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ChaosSimTest,
                         ::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                                           Protocol::kBackEdge),
                         ProtocolParamName);

INSTANTIATE_TEST_SUITE_P(AllProtocols, ChaosThreadsTest,
                         ::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                                           Protocol::kBackEdge),
                         ProtocolParamName);

INSTANTIATE_TEST_SUITE_P(AllProtocols, ChaosWorkersTest,
                         ::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                                           Protocol::kBackEdge),
                         ProtocolParamName);

}  // namespace
}  // namespace lazyrep
