// Stress and property tests for the simulation substrate: large process
// populations, primitive invariants under churn, resource conservation,
// and determinism at scale.

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/primitives.h"
#include "runtime/sim_runtime.h"
#include "sim/simulator.h"

namespace lazyrep::sim {
namespace {

using runtime::Mailbox;
using runtime::Resource;
using runtime::SimRuntime;
using runtime::WaitGroup;
using runtime::WaitQueue;

TEST(SimStress, ThousandsOfInterleavedProcesses) {
  Simulator sim;
  int64_t completed = 0;
  for (int i = 0; i < 5000; ++i) {
    sim.Spawn([](Simulator* s, int64_t* done, int tag) -> Co<void> {
      for (int k = 0; k < 10; ++k) {
        co_await s->Delay(Micros((tag * 7 + k * 13) % 97 + 1));
      }
      ++*done;
    }(&sim, &completed, i));
  }
  sim.Run();
  EXPECT_EQ(completed, 5000);
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(SimStress, EventCountAccounting) {
  Simulator sim;
  sim.Spawn([](Simulator* s) -> Co<void> {
    for (int i = 0; i < 1000; ++i) co_await s->Delay(1);
  }(&sim));
  uint64_t processed = sim.Run();
  EXPECT_EQ(processed, 1000u);
  EXPECT_EQ(sim.events_processed(), 1000u);
}

TEST(SimStress, ResourceConservationUnderChurn) {
  // N workers hammer a capacity-3 resource; at every completion the
  // available count must be within [0, 3] and total busy time must equal
  // the sum of requested work.
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource pool(&rt, 3);
  Duration total_work = 0;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Duration work = Micros(static_cast<double>(rng.Below(500) + 1));
    total_work += work;
    sim.Spawn([](Simulator* s, Resource* r, Duration d,
                 Duration jitter) -> Co<void> {
      co_await s->Delay(jitter);
      co_await r->Consume(d);
    }(&sim, &pool, work, Micros(static_cast<double>(rng.Below(1000)))));
  }
  sim.Run();
  EXPECT_EQ(pool.available(), 3);
  EXPECT_EQ(pool.queue_length(), 0u);
  EXPECT_EQ(pool.busy_time(), total_work);
}

TEST(SimStress, ResourceNeverExceedsCapacity) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource r(&rt, 2);
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 50; ++i) {
    sim.Spawn([](Simulator* s, Resource* res, int* cur,
                 int* peak) -> Co<void> {
      co_await res->Acquire();
      *peak = std::max(*peak, ++*cur);
      co_await s->Delay(Micros(10));
      --*cur;
      res->Release();
    }(&sim, &r, &concurrent, &max_concurrent));
  }
  sim.Run();
  EXPECT_EQ(max_concurrent, 2);
}

TEST(SimStress, MailboxFifoUnderManyProducers) {
  // Per-producer FIFO: each producer's values arrive in its send order.
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Mailbox<std::pair<int, int>> mb(&rt);
  constexpr int kProducers = 20;
  constexpr int kPerProducer = 50;
  for (int p = 0; p < kProducers; ++p) {
    sim.Spawn([](Simulator* s, Mailbox<std::pair<int, int>>* m, int id)
                  -> Co<void> {
      for (int k = 0; k < kPerProducer; ++k) {
        co_await s->Delay(Micros((id * 31 + k * 17) % 53 + 1));
        m->Send({id, k});
      }
    }(&sim, &mb, p));
  }
  std::vector<int> last_seen(kProducers, -1);
  int received = 0;
  sim.Spawn([](Mailbox<std::pair<int, int>>* m, std::vector<int>* last,
               int* count) -> Co<void> {
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
      auto [id, k] = co_await m->Receive();
      EXPECT_EQ((*last)[id] + 1, k);
      (*last)[id] = k;
      ++*count;
    }
  }(&mb, &last_seen, &received));
  sim.Run();
  EXPECT_EQ(received, kProducers * kPerProducer);
}

TEST(SimStress, WaitGroupFanOutFanIn) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  WaitGroup outer(&rt);
  int total = 0;
  outer.Add(10);
  for (int i = 0; i < 10; ++i) {
    sim.Spawn([](SimRuntime* r, WaitGroup* wg, int* sum, int tag)
                  -> Co<void> {
      Simulator* s = r->simulator();
      // Nested fan-out.
      WaitGroup inner(r);
      int local = 0;
      inner.Add(5);
      for (int k = 0; k < 5; ++k) {
        s->Spawn([](Simulator* sm, WaitGroup* g, int* acc,
                    Duration d) -> Co<void> {
          co_await sm->Delay(d);
          ++*acc;
          g->Done();
        }(s, &inner, &local, Micros((tag * 5 + k) % 11 + 1)));
      }
      co_await inner.Wait();
      *sum += local;
      wg->Done();
    }(&rt, &outer, &total, i));
  }
  bool done = false;
  sim.Spawn([](WaitGroup* wg, bool* flag) -> Co<void> {
    co_await wg->Wait();
    *flag = true;
  }(&outer, &done));
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(total, 50);
}

TEST(SimStress, DeterministicAtScale) {
  auto run = [] {
    SimRuntime rt;
    Simulator& sim = *rt.simulator();
    Resource cpu(&rt, 2);
    Mailbox<int> mb(&rt);
    std::vector<std::pair<int, SimTime>> trace;
    Rng rng(7);
    for (int i = 0; i < 300; ++i) {
      sim.Spawn([](Simulator* s, Resource* r, Mailbox<int>* m,
                   std::vector<std::pair<int, SimTime>>* t, int tag,
                   Duration d) -> Co<void> {
        co_await s->Delay(d);
        co_await r->Consume(Micros(50));
        m->Send(tag);
        t->push_back({tag, s->Now()});
      }(&sim, &cpu, &mb, &trace,
        i, Micros(static_cast<double>(rng.Below(400)))));
    }
    sim.Run();
    return trace;
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a, b);
}

TEST(SimStress, ShutdownWithDeepParkedChains) {
  // Leak check target (run under ASAN): parked multi-level coroutine
  // chains are destroyed cleanly by Shutdown.
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  WaitQueue q(&rt);
  struct Rec {
    static Co<void> Park(WaitQueue* wq, int depth) {
      if (depth == 0) {
        co_await wq->Wait();  // Never notified.
        co_return;
      }
      co_await Park(wq, depth - 1);
    }
  };
  for (int i = 0; i < 20; ++i) sim.Spawn(Rec::Park(&q, 10));
  sim.Run();
  EXPECT_EQ(sim.live_process_count(), 20u);
  sim.Shutdown();
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(SimStress, CallbackStorm) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    sim.ScheduleCallback(Micros(i % 100), [&fired] { ++fired; });
  }
  sim.Run();
  EXPECT_EQ(fired, 10000);
}

TEST(SimStress, StopIsReentrantSafe) {
  Simulator sim;
  int ticks = 0;
  sim.Spawn([](Simulator* s, int* t) -> Co<void> {
    for (;;) {
      co_await s->Delay(Millis(1));
      if (++*t % 3 == 0) s->Stop();
    }
  }(&sim, &ticks));
  sim.Run();
  EXPECT_EQ(ticks, 3);
  sim.Run();  // Resumes where it left off.
  EXPECT_EQ(ticks, 6);
  sim.Shutdown();
}

}  // namespace
}  // namespace lazyrep::sim
