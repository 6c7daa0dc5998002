// Fault-injection & crash-recovery tests (src/fault):
//
//  - FaultPlan::Parse grammar and error cases.
//  - System::Create validation of crash-fault configurations.
//  - ReliableTransport unit tests over a lossy Network: exactly-once FIFO
//    restored under drop/dup/delay, down-site parking + FlushPending,
//    delayed acks, and the per-channel adaptive RTO with Karn's rule.
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

#include "core/config.h"
#include "core/messages.h"
#include "core/system.h"
#include "core/wire.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/reliable_transport.h"
#include "harness/experiment.h"
#include "net/network.h"
#include "runtime/primitives.h"
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
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    EXPECT_EQ(env.src, 0);
    got.push_back(UpdateSeq(env.payload));
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
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got.push_back(UpdateSeq(env.payload));
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
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got.push_back(UpdateSeq(env.payload));
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
// Delayed acks and the per-channel adaptive RTO.

using RttEstimator = ReliableTransport::RttEstimator;

TEST(RttEstimatorTest, FollowsRfc6298AndClampsTheTimeout) {
  RttEstimator rtt;
  EXPECT_FALSE(rtt.sampled());
  EXPECT_EQ(rtt.rto(), ReliableTransport::kRtoMin);

  // First sample R: SRTT = R, RTTVAR = R/2, RTO = SRTT + 4·RTTVAR.
  rtt.Sample(Millis(8));
  EXPECT_TRUE(rtt.sampled());
  EXPECT_EQ(rtt.srtt(), Millis(8));
  EXPECT_EQ(rtt.rttvar(), Millis(4));
  EXPECT_EQ(rtt.rto(), Millis(24));
  // Then RTTVAR moves by β = 1/4 of |SRTT - R| - RTTVAR, against the old
  // SRTT, and SRTT by α = 1/8 of R - SRTT.
  rtt.Sample(Millis(16));
  EXPECT_EQ(rtt.rttvar(), Millis(5));
  EXPECT_EQ(rtt.srtt(), Millis(9));
  EXPECT_EQ(rtt.rto(), Millis(29));

  // Backoff doubles the current RTO up to kRtoMax; progress resets it
  // without moving SRTT or RTTVAR.
  rtt.Backoff();
  EXPECT_EQ(rtt.rto(), Millis(58));
  rtt.Backoff();
  EXPECT_EQ(rtt.rto(), ReliableTransport::kRtoMax);
  rtt.Progress();
  EXPECT_EQ(rtt.rto(), Millis(29));
  EXPECT_EQ(rtt.srtt(), Millis(9));
  EXPECT_EQ(rtt.rttvar(), Millis(5));

  // Before the first sample the backoff survives progress: a path slower
  // than kRtoMin needs the longer wait to ever yield a sample.
  RttEstimator fresh;
  fresh.Backoff();
  fresh.Progress();
  EXPECT_EQ(fresh.rto(), 2 * ReliableTransport::kRtoMin);

  // A fast path still waits kRtoMin: no timeout may fire before a
  // delayed ack could return.
  RttEstimator fast;
  for (int i = 0; i < 50; ++i) fast.Sample(Millis(1));
  EXPECT_EQ(fast.rto(), ReliableTransport::kRtoMin);
}

runtime::Co<void> PostEvery(runtime::Runtime* rt,
                            ReliableTransport* transport, int64_t first,
                            int64_t count, Duration gap) {
  for (int64_t i = first; i < first + count; ++i) {
    transport->Post(0, 1, ProtocolMessage(MakeUpdate(i)));
    co_await rt->Delay(gap);
  }
}

// A loss-free channel whose round trip — 6 ms of wire latency each way
// plus the delayed ack — is longer than a fixed 10 ms RTO. Every
// retransmission here is spurious; once the estimator has a sample, a
// steady stream draws at most one.
TEST(ReliableTransportRtoTest, LongRoundTripDrawsAtMostOneSpuriousResend) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork::Config cfg;
  cfg.latency = Millis(6);
  ProtocolNetwork net(&rt, 2, cfg, {nullptr, nullptr}, Rng(41));
  ReliableTransport transport(&rt, &net, /*injector=*/nullptr,
                              /*num_sites=*/2);
  std::vector<int64_t> got;
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got.push_back(UpdateSeq(env.payload));
  });

  // One frame at a time until the channel has a sample: an ack that
  // covers a spurious resend gives none (Karn's rule), but the backed-off
  // RTO, which holds until the first sample, lets the next frame's ack
  // through.
  int64_t next = 0;
  while (transport.rtt(0, 1) == nullptr || !transport.rtt(0, 1)->sampled()) {
    ASSERT_LT(next, 3) << "no round-trip sample";
    transport.Post(0, 1, ProtocolMessage(MakeUpdate(next++)));
    sim.Run();
  }
  EXPECT_GT(transport.rtt(0, 1)->srtt(), Millis(12));
  const uint64_t warmup_resends = transport.retransmissions();

  constexpr int64_t kStream = 100;
  rt.Spawn(PostEvery(&rt, &transport, next, kStream, Millis(2)));
  sim.Run();

  ASSERT_EQ(got.size(), static_cast<size_t>(next + kStream));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], static_cast<int64_t>(i));
  }
  EXPECT_LE(transport.retransmissions() - warmup_resends, 1u);
  EXPECT_TRUE(transport.Quiescent());
}

// Karn's rule: the ack that covers a retransmitted frame leaves SRTT and
// RTTVAR alone (it may answer either transmission). The resend doubled
// the RTO; the ack's progress resets it to the fitted value.
TEST(ReliableTransportRtoTest, AckCoveringAResendGivesNoSample) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork::Config cfg;
  cfg.latency = Millis(1);
  ProtocolNetwork net(&rt, 2, cfg, {nullptr, nullptr}, Rng(43));
  int data_posts = 0;
  net.SetFaultHook([&](SiteId src, SiteId /*dst*/) {
    net::FaultDecision d;
    d.drop = src == 0 && ++data_posts == 2;  // The second frame, once.
    return d;
  });
  ReliableTransport transport(&rt, &net, /*injector=*/nullptr,
                              /*num_sites=*/2);
  int delivered = 0;
  transport.SetHandler(1, [&](ReliableTransport::Envelope) { ++delivered; });

  transport.Post(0, 1, ProtocolMessage(MakeUpdate(0)));
  sim.Run();
  const RttEstimator* rtt = transport.rtt(0, 1);
  ASSERT_NE(rtt, nullptr);
  ASSERT_TRUE(rtt->sampled());
  const Duration srtt = rtt->srtt();
  const Duration rttvar = rtt->rttvar();
  const Duration rto = rtt->rto();

  transport.Post(0, 1, ProtocolMessage(MakeUpdate(1)));
  // Just past the resend, before its ack is back.
  sim.RunUntil(rt.Now() + rto + Millis(0.5));
  EXPECT_EQ(transport.retransmissions(), 1u);
  EXPECT_EQ(rtt->rto(), 2 * rto);
  sim.Run();
  EXPECT_EQ(transport.retransmissions(), 1u);
  EXPECT_EQ(rtt->srtt(), srtt);
  EXPECT_EQ(rtt->rttvar(), rttvar);
  EXPECT_EQ(rtt->rto(), rto);
  EXPECT_EQ(delivered, 2);
  EXPECT_TRUE(transport.Quiescent());
}

// A burst inside one ack delay on a one-way channel owes one cumulative
// ack, not one per frame.
TEST(ReliableTransportAckTest, PostsWithinTheAckDelayDrawOneStandaloneAck) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork::Config cfg;
  cfg.latency = Millis(0.15);
  ProtocolNetwork net(&rt, 2, cfg, {nullptr, nullptr}, Rng(45));
  ReliableTransport transport(&rt, &net, /*injector=*/nullptr,
                              /*num_sites=*/2);
  int delivered = 0;
  transport.SetHandler(1, [&](ReliableTransport::Envelope) { ++delivered; });

  constexpr int kPosts = 10;
  for (int64_t i = 0; i < kPosts; ++i) {
    transport.Post(0, 1, ProtocolMessage(MakeUpdate(i)));
  }
  sim.Run();

  EXPECT_EQ(delivered, kPosts);
  EXPECT_EQ(transport.frames_sent(), static_cast<uint64_t>(kPosts));
  EXPECT_EQ(transport.acks_standalone(), 1u);
  EXPECT_EQ(transport.retransmissions(), 0u);
  EXPECT_TRUE(transport.Quiescent());
}

// A lost ack is repaired: the sender's resend arrives as a duplicate,
// which owes a fresh ack, and the channel drains.
TEST(ReliableTransportAckTest, DroppedAckIsRepairedByTheResendItProvokes) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork::Config cfg;
  cfg.latency = Millis(0.15);
  ProtocolNetwork net(&rt, 2, cfg, {nullptr, nullptr}, Rng(47));
  int acks = 0;
  net.SetFaultHook([&](SiteId src, SiteId /*dst*/) {
    net::FaultDecision d;
    d.drop = src == 1 && ++acks == 1;  // The first ack.
    return d;
  });
  ReliableTransport transport(&rt, &net, /*injector=*/nullptr,
                              /*num_sites=*/2);
  std::vector<int64_t> got;
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got.push_back(UpdateSeq(env.payload));
  });

  transport.Post(0, 1, ProtocolMessage(MakeUpdate(7)));
  sim.Run();

  EXPECT_EQ(got, std::vector<int64_t>{7});
  EXPECT_EQ(transport.retransmissions(), 1u);
  EXPECT_EQ(transport.duplicates_discarded(), 1u);
  EXPECT_EQ(transport.acks_standalone(), 2u);
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
  core::BatchingOptions batching;
  batching.window = Millis(1);
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2,
                              batching);
  std::vector<std::pair<int64_t, bool>> got;
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got.emplace_back(UpdateSeq(env.payload), env.batch_end);
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
  core::BatchingOptions batching;
  batching.window = Millis(1);
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2,
                              batching);
  std::vector<std::pair<int64_t, bool>> got;
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got.emplace_back(UpdateSeq(env.payload), env.batch_end);
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

// The size trigger: a channel whose buffer reaches kBatchBytes inside
// one window flushes at once, and the rest ships when the window fires —
// two frames, FIFO order intact, batch_end on the last message of each.
TEST(ReliableTransportBatchingTest, FullBufferFlushesBeforeTheWindow) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork net(&rt, 2, ProtocolNetwork::Config{}, {nullptr, nullptr},
                      Rng(25));
  FaultInjector injector(&rt, FaultPlan{}, /*num_sites=*/2, Rng(26));
  core::BatchingOptions batching;
  batching.window = Millis(1);
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2,
                              batching);
  std::vector<std::pair<int64_t, bool>> got;
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got.emplace_back(UpdateSeq(env.payload), env.batch_end);
  });

  // ~1 KiB updates: the buffer ([varint length][encoding] per post)
  // crosses kBatchBytes on post `first - 1`.
  auto big_update = [](int64_t seq) {
    core::SecondaryUpdate update = MakeUpdate(seq);
    update.writes.resize(200, update.writes[0]);
    return ProtocolMessage(std::move(update));
  };
  std::vector<uint8_t> buffered;
  int64_t first = 0;
  while (buffered.size() < ReliableTransport::kBatchBytes) {
    const std::vector<uint8_t> one = core::Wire::Encode(big_update(first++));
    core::Wire::PutVarint(&buffered, one.size());
    buffered.insert(buffered.end(), one.begin(), one.end());
  }
  ASSERT_GT(first, 2);
  const int64_t total = first + 2;
  for (int64_t i = 0; i < total; ++i) {
    transport.Post(0, 1, big_update(i));
    // The full buffer shipped at post time, not at the window.
    EXPECT_EQ(transport.frames_sent(), i + 1 < first ? 0u : 1u) << i;
  }
  sim.Run();

  ASSERT_EQ(got.size(), static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    EXPECT_EQ(got[i].first, i);
    EXPECT_EQ(got[i].second, i == first - 1 || i == total - 1) << i;
  }
  EXPECT_EQ(transport.frames_sent(), 2u);
  EXPECT_EQ(transport.batch_frames_sent(), 2u);
  EXPECT_TRUE(transport.Quiescent());
}

// Channel cells are materialized on first touch: traffic on one channel
// of a 256-site transport holds one send cell (at the sender) and one
// receive cell (at the receiver), not 256² of each.
TEST(ReliableTransportTest, OneChannelOfManySitesMaterializesOneCellEach) {
  constexpr int kSites = 256;
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  ProtocolNetwork net(&rt, kSites, ProtocolNetwork::Config{},
                      std::vector<runtime::Resource*>(kSites, nullptr),
                      Rng(27));
  FaultInjector injector(&rt, FaultPlan{}, kSites, Rng(28));
  ReliableTransport transport(&rt, &net, &injector, kSites);
  std::vector<int64_t> got;
  transport.SetHandler(200, [&](ReliableTransport::Envelope env) {
    EXPECT_EQ(env.src, 3);
    got.push_back(UpdateSeq(env.payload));
  });
  for (int64_t i = 0; i < 5; ++i) {
    transport.Post(3, 200, ProtocolMessage(MakeUpdate(i)));
  }
  sim.Run();

  ASSERT_EQ(got.size(), 5u);
  EXPECT_TRUE(transport.Quiescent());
  EXPECT_EQ(transport.allocated_send_channels(), 1u);
  EXPECT_EQ(transport.allocated_recv_channels(), 1u);
  // The wire saw the data channel and the reverse ack channel.
  EXPECT_EQ(net.allocated_channels(), 2u);
}

// Two-way bursty traffic with coalescing over a lossy wire: both
// directions must stay exactly-once FIFO, and the delayed acks, which
// never ride the reverse data frames, must still coalesce.
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
  core::BatchingOptions batching;
  batching.window = Millis(0.5);
  ReliableTransport transport(&rt, &net, &injector, /*num_sites=*/2,
                              batching);
  std::vector<int64_t> got_at_1;
  std::vector<int64_t> got_at_0;
  transport.SetHandler(1, [&](ReliableTransport::Envelope env) {
    got_at_1.push_back(UpdateSeq(env.payload));
  });
  transport.SetHandler(0, [&](ReliableTransport::Envelope env) {
    got_at_0.push_back(UpdateSeq(env.payload));
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
  // Every frame, resends and duplicates included, was received and owed
  // an ack, yet one delayed ack covers all receipts in its delay.
  EXPECT_GT(transport.acks_standalone(), 0u);
  EXPECT_LT(transport.acks_standalone(), transport.frames_sent());
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
