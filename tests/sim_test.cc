// Tests for the discrete-event simulator core (src/sim) and the
// synchronization primitives (src/runtime/primitives.h) running over it
// through `runtime::SimRuntime`. Everything here must be deterministic.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/primitives.h"
#include "runtime/sim_runtime.h"
#include "sim/co.h"
#include "sim/simulator.h"

namespace lazyrep::sim {
namespace {

using runtime::Event;
using runtime::Mailbox;
using runtime::OneShot;
using runtime::Resource;
using runtime::SimRuntime;
using runtime::WaitGroup;
using runtime::WaitQueue;

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0);
}

TEST(SimulatorTest, DelayAdvancesVirtualTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.Spawn([](Simulator* s, SimTime* out) -> Co<void> {
    co_await s->Delay(Millis(5));
    *out = s->Now();
  }(&sim, &observed));
  sim.Run();
  EXPECT_EQ(observed, Millis(5));
}

TEST(SimulatorTest, ZeroDelayYieldsButDoesNotAdvanceTime) {
  Simulator sim;
  SimTime observed = -1;
  sim.Spawn([](Simulator* s, SimTime* out) -> Co<void> {
    co_await s->Delay(0);
    *out = s->Now();
  }(&sim, &observed));
  sim.Run();
  EXPECT_EQ(observed, 0);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](Simulator* s, std::vector<int>* ord, Duration d,
                 int tag) -> Co<void> {
    co_await s->Delay(d);
    ord->push_back(tag);
  };
  sim.Spawn(proc(&sim, &order, Millis(30), 3));
  sim.Spawn(proc(&sim, &order, Millis(10), 1));
  sim.Spawn(proc(&sim, &order, Millis(20), 2));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimeEventsFireInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [](Simulator* s, std::vector<int>* ord, int tag) -> Co<void> {
    co_await s->Delay(Millis(7));
    ord->push_back(tag);
  };
  for (int i = 0; i < 8; ++i) sim.Spawn(proc(&sim, &order, i));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(SimulatorTest, SpawnRunsEagerlyUntilFirstSuspension) {
  Simulator sim;
  bool reached_before_delay = false;
  sim.Spawn([](Simulator* s, bool* flag) -> Co<void> {
    *flag = true;
    co_await s->Delay(1);
  }(&sim, &reached_before_delay));
  EXPECT_TRUE(reached_before_delay);  // Before Run().
  sim.Run();
}

TEST(SimulatorTest, NestedCoroutinesReturnValues) {
  Simulator sim;
  int result = 0;
  auto child = [](Simulator* s) -> Co<int> {
    co_await s->Delay(Millis(1));
    co_return 42;
  };
  sim.Spawn([](Simulator* s, auto childfn, int* out) -> Co<void> {
    int a = co_await childfn(s);
    int b = co_await childfn(s);
    *out = a + b;
  }(&sim, child, &result));
  sim.Run();
  EXPECT_EQ(result, 84);
  EXPECT_EQ(sim.Now(), Millis(2));
}

TEST(SimulatorTest, DeeplyNestedCoroutineChain) {
  Simulator sim;
  // Recursion through Co: each level delays 1us and adds one.
  struct Rec {
    static Co<int> Down(Simulator* s, int depth) {
      if (depth == 0) co_return 0;
      co_await s->Delay(Micros(1));
      int below = co_await Down(s, depth - 1);
      co_return below + 1;
    }
  };
  int result = -1;
  sim.Spawn([](Simulator* s, int* out) -> Co<void> {
    *out = co_await Rec::Down(s, 200);
  }(&sim, &result));
  sim.Run();
  EXPECT_EQ(result, 200);
  EXPECT_EQ(sim.Now(), Micros(200));
}

TEST(SimulatorTest, ScheduleCallbackFiresAtRequestedTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.ScheduleCallback(Millis(3), [&] { fired_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(fired_at, Millis(3));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.Spawn([](Simulator* s, int* c) -> Co<void> {
    for (int i = 0; i < 100; ++i) {
      co_await s->Delay(Millis(1));
      ++*c;
    }
  }(&sim, &count));
  sim.RunUntil(Millis(10));
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sim.Now(), Millis(10));
  sim.RunUntil(Millis(25));
  EXPECT_EQ(count, 25);
}

TEST(SimulatorTest, StopHaltsTheLoop) {
  Simulator sim;
  int count = 0;
  sim.Spawn([](Simulator* s, int* c) -> Co<void> {
    for (;;) {
      co_await s->Delay(Millis(1));
      if (++*c == 5) s->Stop();
    }
  }(&sim, &count));
  sim.Run();
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, ShutdownDestroysParkedProcessesWithoutLeaks) {
  // Run under ASAN/valgrind to detect leaks; structurally we check the
  // live-process accounting.
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  WaitQueue q(&rt);
  sim.Spawn([](WaitQueue* wq) -> Co<void> {
    co_await wq->Wait();  // Never notified.
  }(&q));
  sim.Run();
  EXPECT_EQ(sim.live_process_count(), 1u);
  sim.Shutdown();
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(SimulatorTest, ShutdownPreservesClockAndAcceptsNewWork) {
  // The documented reuse semantics: Shutdown tears down processes but
  // does NOT rewind time or the event sequence counter, so a reused
  // simulator keeps a monotonic clock.
  Simulator sim;
  sim.Spawn([](Simulator* s) -> Co<void> {
    co_await s->Delay(Millis(7));
  }(&sim));
  sim.Run();
  EXPECT_EQ(sim.Now(), Millis(7));
  sim.Shutdown();
  EXPECT_EQ(sim.Now(), Millis(7));  // Time survives Shutdown.
  // New work is accepted and runs relative to the surviving clock.
  SimTime fired_at = -1;
  sim.Spawn([](Simulator* s, SimTime* out) -> Co<void> {
    co_await s->Delay(Millis(3));
    *out = s->Now();
  }(&sim, &fired_at));
  sim.Run();
  EXPECT_EQ(fired_at, Millis(10));
}

TEST(SimulatorTest, ResetRewindsClockForReuse) {
  // Reset = Shutdown + zeroed clock/sequence/counters: what a sweep
  // helper needs between independent runs on one simulator.
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  WaitQueue q(&rt);
  sim.Spawn([](Simulator* s, WaitQueue* wq) -> Co<void> {
    co_await s->Delay(Millis(2));
    co_await wq->Wait();  // Parked forever; Reset must reap it.
  }(&sim, &q));
  sim.Run();
  EXPECT_EQ(sim.Now(), Millis(2));
  EXPECT_EQ(sim.live_process_count(), 1u);
  sim.Reset();
  EXPECT_EQ(sim.Now(), 0);
  EXPECT_EQ(sim.live_process_count(), 0u);
  EXPECT_EQ(sim.events_processed(), 0u);
  SimTime fired_at = -1;
  sim.Spawn([](Simulator* s, SimTime* out) -> Co<void> {
    co_await s->Delay(Millis(5));
    *out = s->Now();
  }(&sim, &fired_at));
  sim.Run();
  EXPECT_EQ(fired_at, Millis(5));  // Fresh timeline.
}

TEST(SimulatorTest, CompletedProcessesAreReaped) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.Spawn([](Simulator* s) -> Co<void> {
      co_await s->Delay(1);
    }(&sim));
  }
  EXPECT_EQ(sim.live_process_count(), 10u);
  sim.Run();
  EXPECT_EQ(sim.live_process_count(), 0u);
}

TEST(WaitQueueTest, NotifyOneWakesInFifoOrder) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  WaitQueue q(&rt);
  std::vector<int> order;
  auto waiter = [](WaitQueue* wq, std::vector<int>* ord, int tag)
      -> Co<void> {
    co_await wq->Wait();
    ord->push_back(tag);
  };
  sim.Spawn(waiter(&q, &order, 1));
  sim.Spawn(waiter(&q, &order, 2));
  sim.Spawn(waiter(&q, &order, 3));
  EXPECT_EQ(q.waiter_count(), 3u);
  q.NotifyOne();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  q.NotifyAll();
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventTest, WaitersProceedAfterSet) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Event ev(&rt);
  int done = 0;
  auto waiter = [](Event* e, int* d) -> Co<void> {
    co_await e->Wait();
    ++*d;
  };
  sim.Spawn(waiter(&ev, &done));
  sim.Spawn(waiter(&ev, &done));
  sim.Run();
  EXPECT_EQ(done, 0);
  ev.Set();
  sim.Run();
  EXPECT_EQ(done, 2);
  // A late waiter does not block at all.
  sim.Spawn(waiter(&ev, &done));
  sim.Run();
  EXPECT_EQ(done, 3);
}

TEST(OneShotTest, FirstFireWins) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  OneShot<std::string> cell(&rt);
  EXPECT_TRUE(cell.TryFire("first"));
  EXPECT_FALSE(cell.TryFire("second"));
  std::string got;
  sim.Spawn([](OneShot<std::string>* c, std::string* out) -> Co<void> {
    *out = co_await c->Wait();
  }(&cell, &got));
  sim.Run();
  EXPECT_EQ(got, "first");
}

TEST(OneShotTest, WaiterParksUntilFired) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  OneShot<int> cell(&rt);
  int got = 0;
  sim.Spawn([](OneShot<int>* c, int* out) -> Co<void> {
    *out = co_await c->Wait();
  }(&cell, &got));
  sim.Run();
  EXPECT_EQ(got, 0);
  cell.TryFire(7);
  sim.Run();
  EXPECT_EQ(got, 7);
}

TEST(WaitGroupTest, WaitReturnsWhenAllDone) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  WaitGroup wg(&rt);
  bool finished = false;
  wg.Add(3);
  auto worker = [](Simulator* s, WaitGroup* g, Duration d) -> Co<void> {
    co_await s->Delay(d);
    g->Done();
  };
  sim.Spawn(worker(&sim, &wg, Millis(1)));
  sim.Spawn(worker(&sim, &wg, Millis(5)));
  sim.Spawn(worker(&sim, &wg, Millis(3)));
  sim.Spawn([](WaitGroup* g, bool* f) -> Co<void> {
    co_await g->Wait();
    *f = true;
  }(&wg, &finished));
  sim.Run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(sim.Now(), Millis(5));
}

TEST(MailboxTest, FifoDelivery) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Mailbox<int> mb(&rt);
  std::vector<int> received;
  sim.Spawn([](Mailbox<int>* m, std::vector<int>* out) -> Co<void> {
    for (int i = 0; i < 3; ++i) out->push_back(co_await m->Receive());
  }(&mb, &received));
  mb.Send(10);
  mb.Send(20);
  mb.Send(30);
  sim.Run();
  EXPECT_EQ(received, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(mb.total_sent(), 3u);
}

TEST(MailboxTest, ReceiverBlocksUntilSend) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Mailbox<int> mb(&rt);
  int got = -1;
  sim.Spawn([](Mailbox<int>* m, int* out) -> Co<void> {
    *out = co_await m->Receive();
  }(&mb, &got));
  sim.Run();
  EXPECT_EQ(got, -1);
  mb.Send(99);
  sim.Run();
  EXPECT_EQ(got, 99);
}

TEST(MailboxTest, WaitNonEmptyAllowsPeekingWithoutPop) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Mailbox<int> mb(&rt);
  int peeked = -1;
  sim.Spawn([](Mailbox<int>* m, int* out) -> Co<void> {
    co_await m->WaitNonEmpty();
    *out = m->Front();
  }(&mb, &peeked));
  mb.Send(5);
  sim.Run();
  EXPECT_EQ(peeked, 5);
  EXPECT_EQ(mb.size(), 1u);  // Not popped.
}

TEST(ResourceTest, SerializesWorkFcfs) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource cpu(&rt, 1);
  std::vector<std::pair<int, SimTime>> completions;
  auto job = [](Simulator* s, Resource* r,
                std::vector<std::pair<int, SimTime>>* out,
                int tag) -> Co<void> {
    co_await r->Consume(Millis(10));
    out->push_back({tag, s->Now()});
  };
  sim.Spawn(job(&sim, &cpu, &completions, 1));
  sim.Spawn(job(&sim, &cpu, &completions, 2));
  sim.Spawn(job(&sim, &cpu, &completions, 3));
  sim.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], (std::pair<int, SimTime>{1, Millis(10)}));
  EXPECT_EQ(completions[1], (std::pair<int, SimTime>{2, Millis(20)}));
  EXPECT_EQ(completions[2], (std::pair<int, SimTime>{3, Millis(30)}));
  EXPECT_EQ(cpu.busy_time(), Millis(30));
}

TEST(ResourceTest, CapacityTwoRunsTwoJobsInParallel) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource cpu(&rt, 2);
  int done = 0;
  auto job = [](Resource* r, int* d) -> Co<void> {
    co_await r->Consume(Millis(10));
    ++*d;
  };
  sim.Spawn(job(&cpu, &done));
  sim.Spawn(job(&cpu, &done));
  sim.Spawn(job(&cpu, &done));
  sim.Run();
  EXPECT_EQ(done, 3);
  // Two run in [0,10), third in [10,20).
  EXPECT_EQ(sim.Now(), Millis(20));
}

TEST(ResourceTest, ReleaseTransfersDirectlyToWaiter) {
  SimRuntime rt;
  Simulator& sim = *rt.simulator();
  Resource r(&rt, 1);
  std::vector<int> order;
  auto holder = [](Simulator* s, Resource* res,
                   std::vector<int>* ord) -> Co<void> {
    co_await res->Acquire();
    ord->push_back(1);
    co_await s->Delay(Millis(1));
    res->Release();
    ord->push_back(2);
  };
  auto waiter = [](Resource* res, std::vector<int>* ord) -> Co<void> {
    co_await res->Acquire();
    ord->push_back(3);
    res->Release();
  };
  sim.Spawn(holder(&sim, &r, &order));
  sim.Spawn(waiter(&r, &order));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(r.available(), 1);
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTraces) {
  auto run_once = [] {
    SimRuntime rt;
    Simulator& sim = *rt.simulator();
    std::vector<std::pair<int, SimTime>> trace;
    Mailbox<int> mb(&rt);
    Resource cpu(&rt, 1);
    for (int i = 0; i < 5; ++i) {
      sim.Spawn([](Simulator* s, Mailbox<int>* m, Resource* r,
                   std::vector<std::pair<int, SimTime>>* t,
                   int tag) -> Co<void> {
        co_await s->Delay(Micros(tag * 13 % 7));
        co_await r->Consume(Micros(100));
        m->Send(tag);
        t->push_back({tag, s->Now()});
      }(&sim, &mb, &cpu, &trace, i));
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace lazyrep::sim
