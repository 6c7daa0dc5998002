// Tests for the simulated network (src/net): reliable delivery, FIFO
// channels, latency/jitter, CPU charging.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"
#include "runtime/primitives.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"

namespace lazyrep::net {
namespace {

using runtime::Co;
using runtime::Resource;
using runtime::Runtime;
using runtime::RuntimeKind;
using runtime::SimRuntime;
using runtime::ThreadRuntime;
using runtime::WaitGroup;
using sim::Simulator;

using IntNet = Network<int>;

IntNet::Config NoCpuConfig(Duration latency) {
  IntNet::Config cfg;
  cfg.latency = latency;
  return cfg;
}

TEST(NetworkTest, DeliversWithConfiguredLatency) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet net(&rt, 2, NoCpuConfig(Millis(5)), {nullptr, nullptr}, Rng(1));
  std::vector<std::pair<int, SimTime>> got;
  net.SetHandler(1, [&](IntNet::Envelope env) {
    got.push_back({env.payload, sim.Now()});
  });
  net.Post(0, 1, 42);
  sim.Run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 42);
  EXPECT_EQ(got[0].second, Millis(5));
}

TEST(NetworkTest, ChannelIsFifoEvenWithJitter) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet::Config cfg;
  cfg.latency = Millis(1);
  cfg.jitter = Millis(10);  // Large jitter would reorder without the
                            // channel clock.
  IntNet net(&rt, 2, cfg, {nullptr, nullptr}, Rng(7));
  std::vector<int> got;
  net.SetHandler(1,
                 [&](IntNet::Envelope env) { got.push_back(env.payload); });
  for (int i = 0; i < 50; ++i) net.Post(0, 1, i);
  sim.Run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST(NetworkTest, IndependentChannelsDoNotBlockEachOther) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet net(&rt, 3, NoCpuConfig(Millis(1)), {nullptr, nullptr, nullptr},
             Rng(1));
  std::vector<std::pair<SiteId, int>> got;
  net.SetHandler(2, [&](IntNet::Envelope env) {
    got.push_back({env.src, env.payload});
  });
  net.Post(0, 2, 100);
  net.Post(1, 2, 200);
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  // Same latency, posted in order 0-then-1 at the same instant.
  EXPECT_EQ(got[0], (std::pair<SiteId, int>{0, 100}));
  EXPECT_EQ(got[1], (std::pair<SiteId, int>{1, 200}));
}

TEST(NetworkTest, EnvelopeCarriesMetadata) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet net(&rt, 2, NoCpuConfig(Millis(2)), {nullptr, nullptr}, Rng(1));
  IntNet::Envelope seen;
  net.SetHandler(0, [&](IntNet::Envelope env) { seen = env; });
  sim.Spawn([](Simulator* s, IntNet* n) -> Co<void> {
    co_await s->Delay(Millis(10));
    n->Post(1, 0, 9);
  }(&sim, &net));
  sim.Run();
  EXPECT_EQ(seen.src, 1);
  EXPECT_EQ(seen.dst, 0);
  EXPECT_EQ(seen.payload, 9);
}

TEST(NetworkTest, CountsMessages) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet net(&rt, 3, NoCpuConfig(Millis(1)), {nullptr, nullptr, nullptr},
             Rng(1));
  net.SetHandler(1, [](IntNet::Envelope) {});
  net.SetHandler(2, [](IntNet::Envelope) {});
  net.Post(0, 1, 1);
  net.Post(0, 2, 2);
  net.Post(1, 2, 3);
  sim.Run();
  IntNet::Stats stats = net.Snapshot();
  EXPECT_EQ(stats.total_messages, 3u);
  EXPECT_EQ(stats.sent_from[0], 2u);
  EXPECT_EQ(stats.sent_from[1], 1u);
  EXPECT_EQ(stats.received_at[2], 2u);
  EXPECT_EQ(stats.received_at[1], 1u);
  EXPECT_EQ(stats.received_at[0], 0u);
}

TEST(NetworkTest, ReceiveCpuDelaysHandlerAndChargesMachine) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource cpu(&rt, 1);
  IntNet::Config cfg;
  cfg.latency = Millis(1);
  cfg.recv_cpu = Millis(2);
  IntNet net(&rt, 2, cfg, {&cpu, &cpu}, Rng(1));
  SimTime handled_at = -1;
  net.SetHandler(1, [&](IntNet::Envelope) { handled_at = sim.Now(); });
  net.Post(0, 1, 1);
  sim.Run();
  EXPECT_EQ(handled_at, Millis(3));  // 1 wire + 2 receive CPU.
  EXPECT_EQ(cpu.busy_time(), Millis(2));
}

TEST(NetworkTest, SendCpuChargesSenderWithoutBlockingPost) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource cpu0(&rt, 1);
  Resource cpu1(&rt, 1);
  IntNet::Config cfg;
  cfg.latency = Millis(1);
  cfg.send_cpu = Millis(4);
  IntNet net(&rt, 2, cfg, {&cpu0, &cpu1}, Rng(1));
  SimTime handled_at = -1;
  net.SetHandler(1, [&](IntNet::Envelope) { handled_at = sim.Now(); });
  net.Post(0, 1, 1);  // Returns immediately.
  sim.Run();
  // The message departs only after the sender's 4 ms per-message CPU
  // work completes, then pays 1 ms of wire latency. (Posting itself
  // still did not block: the charge ran as its own coroutine.)
  EXPECT_EQ(handled_at, Millis(5));
  EXPECT_EQ(cpu0.busy_time(), Millis(4));
  EXPECT_EQ(cpu1.busy_time(), 0);
}

TEST(NetworkTest, SendCpuDelaysDepartureAndPreservesPostOrder) {
  // Regression for the schedule bug where send CPU was charged in
  // parallel with the wire: departure must *follow* the charge, and a
  // busy sender CPU must back-pressure later messages on every channel
  // without reordering any of them.
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource cpu0(&rt, 1);
  IntNet::Config cfg;
  cfg.latency = Millis(1);
  cfg.send_cpu = Millis(2);
  IntNet net(&rt, 3, cfg, {&cpu0, nullptr, nullptr}, Rng(1));
  std::vector<std::pair<int, SimTime>> got;  // (payload, delivery time)
  auto record = [&](IntNet::Envelope env) {
    got.push_back({env.payload, sim.Now()});
  };
  net.SetHandler(1, record);
  net.SetHandler(2, record);
  net.Post(0, 1, 10);
  net.Post(0, 2, 20);
  net.Post(0, 1, 11);
  sim.Run();
  ASSERT_EQ(got.size(), 3u);
  // FCFS CPU: charges finish at 2, 4, 6 ms; each message then takes 1 ms
  // of wire. Global delivery order equals post order.
  EXPECT_EQ(got[0], (std::pair<int, SimTime>{10, Millis(3)}));
  EXPECT_EQ(got[1], (std::pair<int, SimTime>{20, Millis(5)}));
  EXPECT_EQ(got[2], (std::pair<int, SimTime>{11, Millis(7)}));
  EXPECT_EQ(cpu0.busy_time(), Millis(6));
}

TEST(NetworkTest, RecvCpuPreservesPerChannelOrder) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource cpu(&rt, 1);
  IntNet::Config cfg;
  cfg.latency = Millis(1);
  cfg.recv_cpu = Micros(100);
  IntNet net(&rt, 2, cfg, {&cpu, &cpu}, Rng(3));
  std::vector<int> got;
  net.SetHandler(1,
                 [&](IntNet::Envelope env) { got.push_back(env.payload); });
  for (int i = 0; i < 20; ++i) net.Post(0, 1, i);
  sim.Run();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[i], i);
}

TEST(NetworkTest, FaultHookDropsDuplicatesAndDelays) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet net(&rt, 2, NoCpuConfig(Millis(1)), {nullptr, nullptr}, Rng(1));
  std::vector<std::pair<int, SimTime>> got;
  net.SetHandler(1, [&](IntNet::Envelope env) {
    got.push_back({env.payload, sim.Now()});
  });
  // Scripted decisions: message 1 dropped, message 2 duplicated,
  // message 3 delayed by 5 ms.
  int calls = 0;
  net.SetFaultHook([&](SiteId, SiteId) {
    FaultDecision d;
    ++calls;
    if (calls == 1) d.drop = true;
    if (calls == 2) d.duplicate = true;
    if (calls == 3) d.extra_delay = Millis(5);
    return d;
  });
  net.Post(0, 1, 1);
  net.Post(0, 1, 2);
  net.Post(0, 1, 3);
  sim.Run();
  ASSERT_EQ(got.size(), 3u);  // 1 lost; 2 arrives twice; 3 arrives late.
  EXPECT_EQ(got[0].first, 2);
  EXPECT_EQ(got[1].first, 2);
  EXPECT_EQ(got[2].first, 3);
  EXPECT_GE(got[2].second, Millis(6));  // 1 wire + 5 injected.
  IntNet::Stats stats = net.Snapshot();
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.duplicated, 1u);
  // Dropped and duplicated messages still count as traffic (they used
  // the wire); 3 posts + 1 duplicate.
  EXPECT_EQ(stats.total_messages, 4u);
}

TEST(NetworkTest, JitterIsDeterministicUnderSeed) {
  auto run = [](uint64_t seed) {
    SimRuntime rt;
  Simulator& sim = *rt.simulator();
    IntNet::Config cfg;
    cfg.latency = Millis(1);
    cfg.jitter = Millis(3);
    IntNet net(&rt, 2, cfg, {nullptr, nullptr}, Rng(seed));
    std::vector<SimTime> times;
    net.SetHandler(1, [&](IntNet::Envelope) { times.push_back(sim.Now()); });
    for (int i = 0; i < 10; ++i) net.Post(0, 1, i);
    sim.Run();
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(NetworkTest, BandwidthAddsTransmissionTime) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet::Config cfg;
  cfg.latency = Millis(1);
  cfg.bandwidth_bytes_per_sec = 1000;  // 1 byte per ms.
  IntNet net(&rt, 2, cfg, {nullptr, nullptr}, Rng(1));
  net.SetSizer([](const int&) { return static_cast<size_t>(10); });
  SimTime arrived = -1;
  net.SetHandler(1, [&](IntNet::Envelope) { arrived = sim.Now(); });
  net.Post(0, 1, 7);
  sim.Run();
  // 10 bytes at 1 B/ms = 10 ms transmission + 1 ms latency.
  EXPECT_EQ(arrived, Millis(11));
  EXPECT_EQ(net.Snapshot().total_bytes, 10u);
}

TEST(NetworkTest, SharedMediumSerializesAllChannels) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet::Config cfg;
  cfg.latency = 0;
  cfg.bandwidth_bytes_per_sec = 1000;
  IntNet net(&rt, 3, cfg, {nullptr, nullptr, nullptr}, Rng(1));
  net.SetSizer([](const int&) { return static_cast<size_t>(5); });
  std::vector<SimTime> arrivals;
  auto handler = [&](IntNet::Envelope) { arrivals.push_back(sim.Now()); };
  net.SetHandler(1, handler);
  net.SetHandler(2, handler);
  net.Post(0, 1, 1);  // Bus [0, 5ms).
  net.Post(0, 2, 2);  // Bus [5, 10ms) — different channel, same bus.
  sim.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], Millis(5));
  EXPECT_EQ(arrivals[1], Millis(10));
}

TEST(NetworkTest, LoopbackSkipsBusAndUsesLoopbackLatency) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet::Config cfg;
  cfg.latency = Millis(5);
  cfg.loopback_latency = Millis(1);
  cfg.bandwidth_bytes_per_sec = 10;  // Brutally slow wire.
  IntNet net(&rt, 3, cfg, {nullptr, nullptr, nullptr}, Rng(1));
  net.SetSizer([](const int&) { return static_cast<size_t>(100); });
  net.SetMachineMap({0, 0, 1});  // Endpoints 0 and 1 share a machine.
  std::map<SiteId, SimTime> arrivals;
  auto handler = [&](IntNet::Envelope env) {
    arrivals[env.dst] = sim.Now();
  };
  net.SetHandler(1, handler);
  net.SetHandler(2, handler);
  net.Post(0, 1, 1);  // Loopback: 1 ms, no bus.
  net.Post(0, 2, 2);  // Wire: 10 s transmission + 5 ms.
  sim.Run();
  EXPECT_EQ(arrivals[1], Millis(1));
  EXPECT_EQ(arrivals[2], Seconds(10) + Millis(5));
}

TEST(NetworkTest, FifoPreservedUnderBandwidthAndJitter) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  IntNet::Config cfg;
  cfg.latency = Millis(1);
  cfg.jitter = Millis(5);
  cfg.bandwidth_bytes_per_sec = 100000;
  IntNet net(&rt, 2, cfg, {nullptr, nullptr}, Rng(17));
  net.SetSizer([](const int& v) {
    return static_cast<size_t>(v % 37 + 1);  // Variable sizes.
  });
  std::vector<int> got;
  net.SetHandler(1,
                 [&](IntNet::Envelope env) { got.push_back(env.payload); });
  for (int i = 0; i < 40; ++i) net.Post(0, 1, i);
  sim.Run();
  ASSERT_EQ(got.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(got[i], i);
}

// Regression for the observer event-order race: post events must be
// emitted before the delivery (and any duplicate's delivery) is handed
// to the destination executor. Under ThreadRuntime a scheduled delivery
// can run immediately, so emitting the post event after scheduling let
// a deliver trace precede its own post. The observer below checks the
// prefix invariant delivers <= posts at every event.
TEST(NetworkTest, ObserverPostAlwaysPrecedesDeliverUnderThreads) {
  constexpr int kMessages = 200;
  ThreadRuntime rt(2);
  IntNet net(&rt, 2, NoCpuConfig(0), {nullptr, nullptr}, Rng(11));
  net.SetMachineMap({0, 1});
  std::atomic<uint64_t> handled{0};
  net.SetHandler(1, [&](IntNet::Envelope) {
    handled.fetch_add(1, std::memory_order_relaxed);
  });
  // Duplicate everything: the duplicate's post event is the one the old
  // code emitted last, after both deliveries were already runnable.
  net.SetFaultHook([](SiteId, SiteId) {
    FaultDecision d;
    d.duplicate = true;
    return d;
  });
  std::mutex obs_mu;
  uint64_t posts = 0;
  uint64_t delivers = 0;
  uint64_t violations = 0;
  net.AddObserver([&](const IntNet::Envelope&, bool delivered) {
    std::lock_guard<std::mutex> lock(obs_mu);
    if (delivered) {
      ++delivers;
      if (delivers > posts) ++violations;
    } else {
      ++posts;
    }
  });
  rt.Start();
  WaitGroup wg(&rt);
  wg.Add(1);
  rt.SpawnOn(0, [](Runtime* r, IntNet* n, WaitGroup* w) -> Co<void> {
    for (int i = 0; i < kMessages; ++i) {
      n->Post(0, 1, i);
      co_await r->Delay(0);
    }
    w->Done();
  }(&rt, &net, &wg));
  ASSERT_TRUE(wg.WaitBlocking(Seconds(30))) << "posting hung";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (handled.load(std::memory_order_relaxed) < 2 * kMessages &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rt.Shutdown();
  ASSERT_EQ(handled.load(), 2u * kMessages) << "deliveries missing";
  std::lock_guard<std::mutex> lock(obs_mu);
  EXPECT_EQ(violations, 0u) << "a deliver event preceded its post event";
  // Every message and its duplicate got a post event and a deliver
  // event of their own.
  EXPECT_EQ(posts, 2u * kMessages);
  EXPECT_EQ(delivers, 2u * kMessages);
}

// Contention hammer, run against BOTH runtime backends: every site
// floods every other site concurrently (with jitter, bandwidth, and a
// deterministic per-channel fault pattern), then the test checks
// per-channel FIFO content and posted == delivered + dropped
// conservation from the consolidated Snapshot().
class NetworkBackendTest : public ::testing::TestWithParam<RuntimeKind> {
 protected:
  std::unique_ptr<Runtime> MakeRt(int machines) {
    if (GetParam() == RuntimeKind::kThreads) {
      return std::make_unique<ThreadRuntime>(machines);
    }
    return std::make_unique<SimRuntime>();
  }
};

TEST_P(NetworkBackendTest, ContentionHammerKeepsFifoAndConservation) {
  constexpr int kSites = 4;
  constexpr int kPerChannel = 50;
  constexpr int kDropEvery = 7;  // Per channel: drop posts 3, 10, 17, ...
  std::unique_ptr<Runtime> rt = MakeRt(kSites);
  IntNet::Config cfg;
  cfg.latency = Micros(50);
  cfg.jitter = Micros(200);  // Exercises the shared RNG critical section.
  cfg.bandwidth_bytes_per_sec = 1250000;  // The shared bus's lock.
  IntNet net(rt.get(), kSites, cfg,
             std::vector<Resource*>(kSites, nullptr), Rng(23));
  net.SetSizer([](const int&) { return static_cast<size_t>(64); });
  std::vector<int> machine_of(kSites);
  for (int s = 0; s < kSites; ++s) machine_of[s] = s;
  net.SetMachineMap(machine_of);
  // Deterministic per-channel drop pattern. The hook runs inside the
  // network's fault critical section, so the counters need no extra
  // synchronization.
  std::vector<int> hook_calls(kSites * kSites, 0);
  net.SetFaultHook([&](SiteId src, SiteId dst) {
    FaultDecision d;
    int n = hook_calls[static_cast<size_t>(src) * kSites + dst]++;
    d.drop = (n % kDropEvery == 3);
    return d;
  });
  // got[src][dst] is only touched from dst's machine (handlers are
  // machine-confined), so the inner vectors need no locking.
  std::vector<std::vector<std::vector<int>>> got(
      kSites, std::vector<std::vector<int>>(kSites));
  std::atomic<uint64_t> handled{0};
  for (SiteId dst = 0; dst < kSites; ++dst) {
    net.SetHandler(dst, [&, dst](IntNet::Envelope env) {
      got[static_cast<size_t>(env.src)][static_cast<size_t>(dst)]
          .push_back(env.payload);
      handled.fetch_add(1, std::memory_order_relaxed);
    });
  }
  rt->Start();
  WaitGroup wg(rt.get());
  wg.Add(kSites);
  for (SiteId src = 0; src < kSites; ++src) {
    rt->SpawnOn(src, [](Runtime* r, IntNet* n, SiteId s,
                        WaitGroup* w) -> Co<void> {
      for (int i = 0; i < kPerChannel; ++i) {
        for (SiteId dst = 0; dst < kSites; ++dst) {
          if (dst != s) n->Post(s, dst, i);
        }
        co_await r->Delay(0);  // Yield so the floods interleave.
      }
      w->Done();
    }(rt.get(), &net, src, &wg));
  }
  constexpr uint64_t kPosts =
      static_cast<uint64_t>(kSites) * (kSites - 1) * kPerChannel;
  // Per channel, payloads 3, 10, 17, ... are dropped.
  uint64_t dropped_per_channel = 0;
  for (int i = 0; i < kPerChannel; ++i) {
    if (i % kDropEvery == 3) ++dropped_per_channel;
  }
  const uint64_t kDropped =
      static_cast<uint64_t>(kSites) * (kSites - 1) * dropped_per_channel;
  if (rt->concurrent()) {
    ASSERT_TRUE(wg.WaitBlocking(Seconds(30))) << "posting hung";
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (handled.load(std::memory_order_relaxed) < kPosts - kDropped &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    static_cast<SimRuntime*>(rt.get())->simulator()->Run();
  }
  rt->Shutdown();

  // Conservation, from the consolidated snapshot.
  IntNet::Stats stats = net.Snapshot();
  EXPECT_EQ(stats.total_messages, kPosts);
  EXPECT_EQ(stats.dropped, kDropped);
  EXPECT_EQ(stats.duplicated, 0u);
  EXPECT_EQ(stats.total_bytes, kPosts * 64);
  uint64_t delivered = 0;
  for (SiteId s = 0; s < kSites; ++s) {
    EXPECT_EQ(stats.sent_from[static_cast<size_t>(s)],
              static_cast<uint64_t>(kSites - 1) * kPerChannel);
    delivered += stats.received_at[static_cast<size_t>(s)];
  }
  EXPECT_EQ(delivered, kPosts - kDropped)
      << "posted != delivered + dropped";

  // Per-channel FIFO: each channel received exactly the non-dropped
  // payloads, in post order.
  std::vector<int> expected;
  for (int i = 0; i < kPerChannel; ++i) {
    if (i % kDropEvery != 3) expected.push_back(i);
  }
  for (SiteId src = 0; src < kSites; ++src) {
    for (SiteId dst = 0; dst < kSites; ++dst) {
      if (src == dst) continue;
      EXPECT_EQ(got[static_cast<size_t>(src)][static_cast<size_t>(dst)],
                expected)
          << "channel " << src << " -> " << dst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothBackends, NetworkBackendTest,
                         ::testing::Values(RuntimeKind::kSim,
                                           RuntimeKind::kThreads),
                         [](const auto& info) {
                           return info.param == RuntimeKind::kThreads
                                      ? "Threads"
                                      : "Sim";
                         });

TEST(NetworkTest, SparseAllocatesOnlyTouchedChannels) {
  // A 128-endpoint chain touches 127 channels, not 128² — the tentpole
  // memory fix for 100+ site copy graphs (docs/SCALE.md).
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  const int n = 128;
  IntNet net(&rt, n, NoCpuConfig(Millis(1)),
             std::vector<runtime::Resource*>(n, nullptr), Rng(1));
  EXPECT_EQ(net.allocated_channels(), 0u);  // Cells materialize lazily.
  int delivered = 0;
  for (SiteId s = 0; s < n; ++s) {
    net.SetHandler(s, [&](IntNet::Envelope) { ++delivered; });
  }
  for (SiteId s = 0; s + 1 < n; ++s) net.Post(s, s + 1, s);
  sim.Run();
  EXPECT_EQ(delivered, n - 1);
  EXPECT_EQ(net.allocated_channels(), static_cast<size_t>(n - 1));
}

TEST(NetworkTest, SchedulesDoNotDependOnEndpointCount) {
  // The same traffic pattern with the same jitter seed must arrive at
  // byte-identical times however many endpoints the network has: idle
  // endpoints own no channel cells and draw nothing from the RNG.
  auto run = [](int n) {
    SimRuntime rt;
    Simulator& sim = *rt.simulator();
    IntNet::Config cfg;
    cfg.latency = Millis(2);
    cfg.jitter = Millis(1);
    IntNet net(&rt, n, cfg, std::vector<runtime::Resource*>(n, nullptr),
               Rng(99));
    std::vector<std::pair<int, SimTime>> got;
    for (SiteId s = 0; s < n; ++s) {
      net.SetHandler(s, [&got, &sim](IntNet::Envelope env) {
        got.push_back({env.payload, sim.Now()});
      });
    }
    // Traffic confined to endpoints {0, 1, 2}; bursts exercise the
    // per-channel FIFO clamp.
    for (int round = 0; round < 5; ++round) {
      net.Post(0, 1, 10 * round);
      net.Post(0, 1, 10 * round + 1);
      net.Post(1, 2, 10 * round + 2);
      net.Post(2, 0, 10 * round + 3);
    }
    sim.Run();
    return got;
  };
  EXPECT_EQ(run(3), run(104));
}

TEST(NetworkTest, StringPayloads) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  using StrNet = Network<std::string>;
  StrNet::Config cfg;
  StrNet net(&rt, 2, cfg, {nullptr, nullptr}, Rng(1));
  std::string got;
  net.SetHandler(1,
                 [&](StrNet::Envelope env) { got = env.payload; });
  net.Post(0, 1, "update(a=5)");
  sim.Run();
  EXPECT_EQ(got, "update(a=5)");
}

}  // namespace
}  // namespace lazyrep::net
