// Tests for the runtime abstraction layer (src/runtime/).
//
// Three groups:
//  1. RuntimeBackendTest — one parameterized suite run against BOTH
//     backends (SimRuntime and ThreadRuntime), pinning the shared
//     scheduling contract: timers fire in (due, submission) order,
//     mailboxes are FIFO, WaitGroup fan-in works from coroutines and
//     from the driver thread, and Resource charges serialize and
//     account busy time.
//  2. SimGoldenMetricsTest — the bit-for-bit determinism guarantee.
//     SimRuntime is a pure forwarding adapter over sim::Simulator, so a
//     full system run must reproduce the exact metrics captured before
//     the runtime layer existed. Any drift in these numbers means the
//     adapter perturbed the event schedule.
//  3. ThreadRuntimeLanesTest / SimRuntimeLanesTest — the multi-worker
//     lane model: executor indexing, RunOn hops, cross-lane primitive
//     wake-ups, Yield's FIFO fairness, and RunOn's and Yield's
//     no-suspension guarantee under the sim.
//  4. ThreadRuntimeSystemTest — cross-backend equivalence: the BackEdge
//     protocol at paper defaults stays serializable and replica-
//     convergent under real threads across several seeds.

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "core/system.h"
#include "harness/experiment.h"
#include "runtime/primitives.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"

namespace lazyrep {
namespace {

using runtime::Co;
using runtime::Mailbox;
using runtime::OneShot;
using runtime::Resource;
using runtime::Runtime;
using runtime::RuntimeKind;
using runtime::SimRuntime;
using runtime::ThreadRuntime;
using runtime::WaitGroup;

class RuntimeBackendTest : public ::testing::TestWithParam<RuntimeKind> {
 protected:
  std::unique_ptr<Runtime> MakeRt(int machines) {
    if (GetParam() == RuntimeKind::kThreads) {
      return std::make_unique<ThreadRuntime>(machines);
    }
    return std::make_unique<SimRuntime>();
  }

  // Runs until `wg` completes: drives the event loop under kSim, blocks
  // the driver thread under kThreads.
  void Drive(Runtime* rt, WaitGroup* wg) {
    if (rt->concurrent()) {
      ASSERT_TRUE(wg->WaitBlocking(Seconds(30))) << "threads run hung";
    } else {
      static_cast<SimRuntime*>(rt)->simulator()->Run();
      ASSERT_EQ(wg->pending(), 0);
    }
  }
};

TEST_P(RuntimeBackendTest, TimersFireInDueOrder) {
  std::unique_ptr<Runtime> rt = MakeRt(1);
  rt->Start();
  WaitGroup wg(rt.get());
  wg.Add(3);
  // `order` is only touched from machine 0's callbacks (confined).
  std::vector<int> order;
  rt->ScheduleCallbackOn(0, Millis(5), [&] {
    order.push_back(3);
    wg.Done();
  });
  rt->ScheduleCallbackOn(0, Millis(1), [&] {
    order.push_back(1);
    wg.Done();
  });
  rt->ScheduleCallbackOn(0, Millis(3), [&] {
    order.push_back(2);
    wg.Done();
  });
  Drive(rt.get(), &wg);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  rt->Shutdown();
}

TEST_P(RuntimeBackendTest, EqualDueTimersKeepSubmissionOrder) {
  // The network relies on this: deliveries handed to a machine at the
  // same absolute instant must run in the order they were scheduled.
  std::unique_ptr<Runtime> rt = MakeRt(1);
  rt->Start();
  WaitGroup wg(rt.get());
  wg.Add(4);
  std::vector<int> order;
  const SimTime when = rt->Now() + Millis(2);
  for (int i = 0; i < 4; ++i) {
    rt->ScheduleCallbackAtOn(0, when, [&order, &wg, i] {
      order.push_back(i);
      wg.Done();
    });
  }
  Drive(rt.get(), &wg);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  rt->Shutdown();
}

Co<void> ProduceInts(Runtime* rt, Mailbox<int>* box, int count,
                     WaitGroup* wg) {
  for (int i = 0; i < count; ++i) {
    box->Send(i);
    co_await rt->Delay(0);  // Yield so sends and receives interleave.
  }
  wg->Done();
}

Co<void> ConsumeInts(Mailbox<int>* box, int count, std::vector<int>* got,
                     WaitGroup* wg) {
  for (int i = 0; i < count; ++i) {
    got->push_back(co_await box->Receive());
  }
  wg->Done();
}

TEST_P(RuntimeBackendTest, MailboxDeliversFifo) {
  std::unique_ptr<Runtime> rt = MakeRt(1);
  rt->Start();
  Mailbox<int> box(rt.get());
  std::vector<int> got;
  WaitGroup wg(rt.get());
  wg.Add(2);
  // Mailboxes are machine-confined: producer and consumer share machine 0.
  rt->SpawnOn(0, ConsumeInts(&box, 10, &got, &wg));
  rt->SpawnOn(0, ProduceInts(rt.get(), &box, 10, &wg));
  Drive(rt.get(), &wg);
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(box.total_sent(), 10u);
  EXPECT_TRUE(box.empty());
  rt->Shutdown();
}

Co<void> CountingWorker(Runtime* rt, Duration nap, std::atomic<int>* count,
                        WaitGroup* wg) {
  co_await rt->Delay(nap);
  count->fetch_add(1, std::memory_order_relaxed);
  wg->Done();
}

TEST_P(RuntimeBackendTest, WaitGroupFanInAcrossMachines) {
  std::unique_ptr<Runtime> rt = MakeRt(2);
  rt->Start();
  WaitGroup wg(rt.get());
  std::atomic<int> count{0};
  for (int i = 0; i < 8; ++i) {
    wg.Add();
    rt->SpawnOn(i % rt->num_machines(),
                CountingWorker(rt.get(), Millis(i % 3), &count, &wg));
  }
  Drive(rt.get(), &wg);
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(wg.pending(), 0);
  rt->Shutdown();
}

Co<void> Supervisor(WaitGroup* children, std::atomic<bool>* resumed,
                    WaitGroup* done) {
  co_await children->Wait();
  resumed->store(true);
  done->Done();
}

TEST_P(RuntimeBackendTest, WaitGroupAwaitableWait) {
  std::unique_ptr<Runtime> rt = MakeRt(1);
  rt->Start();
  WaitGroup children(rt.get());
  WaitGroup done(rt.get());
  done.Add();
  std::atomic<bool> resumed{false};
  std::atomic<int> count{0};
  children.Add(3);
  for (int i = 0; i < 3; ++i) {
    rt->SpawnOn(0, CountingWorker(rt.get(), Millis(i), &count, &children));
  }
  rt->SpawnOn(0, Supervisor(&children, &resumed, &done));
  Drive(rt.get(), &done);
  EXPECT_TRUE(resumed.load());
  EXPECT_EQ(count.load(), 3);
  rt->Shutdown();
}

Co<void> ChargeCpu(Resource* cpu, Duration d, WaitGroup* wg) {
  co_await cpu->Consume(d);
  wg->Done();
}

TEST_P(RuntimeBackendTest, ResourceChargesSerializeAndAccount) {
  std::unique_ptr<Runtime> rt = MakeRt(1);
  rt->Start();
  Resource cpu(rt.get(), 1);
  WaitGroup wg(rt.get());
  wg.Add(2);
  rt->SpawnOn(0, ChargeCpu(&cpu, Millis(5), &wg));
  rt->SpawnOn(0, ChargeCpu(&cpu, Millis(5), &wg));
  Drive(rt.get(), &wg);
  EXPECT_EQ(cpu.busy_time(), Millis(10));
  EXPECT_EQ(cpu.available(), 1);
  EXPECT_EQ(cpu.queue_length(), 0u);
  // Unit capacity serializes the two charges: at least 10ms must have
  // elapsed on either backend (exactly 10ms of virtual time under kSim).
  EXPECT_GE(rt->Now(), Millis(10));
  if (!rt->concurrent()) {
    EXPECT_EQ(rt->Now(), Millis(10));
  }
  rt->Shutdown();
}

// ---------------------------------------------------------------------
// Multi-worker lanes: executor indexing, RunOn hops between lanes, and
// the cross-lane primitive contract (a waiter fired from another lane
// resumes on its own lane). ThreadRuntime-only except the last test,
// which pins the sim-side guarantee that RunOn never suspends there.

TEST(ThreadRuntimeLanesTest, ExecutorIndexingRoundTrips) {
  ThreadRuntime rt(/*num_machines=*/2, /*workers_per_machine=*/3);
  EXPECT_EQ(rt.num_machines(), 2);
  EXPECT_EQ(rt.workers_per_machine(), 3);
  EXPECT_EQ(rt.num_executors(), 6);
  for (int m = 0; m < 2; ++m) {
    for (int lane = 0; lane < 3; ++lane) {
      EXPECT_EQ(rt.MachineOfExecutor(rt.ExecutorOf(m, lane)), m);
    }
  }
  EXPECT_EQ(rt.ExecutorOf(0, 0), 0);
  EXPECT_EQ(rt.ExecutorOf(1, 0), 3);
  EXPECT_EQ(rt.ExecutorOf(1, 2), 5);
  rt.Shutdown();
}

Co<void> HopAcrossLanes(Runtime* rt, std::vector<int>* seen,
                        WaitGroup* wg) {
  for (int exec = rt->num_executors() - 1; exec >= 0; --exec) {
    co_await rt->RunOn(exec);
    seen->push_back(rt->CurrentMachine());
    co_await rt->RunOn(exec);  // Already there: must stay put.
    seen->push_back(rt->CurrentMachine());
  }
  wg->Done();
}

TEST(ThreadRuntimeLanesTest, RunOnMovesTheCoroutineToTheRequestedLane) {
  ThreadRuntime rt(/*num_machines=*/2, /*workers_per_machine=*/2);
  rt.Start();
  WaitGroup wg(&rt);
  wg.Add(1);
  std::vector<int> seen;  // Touched only by the one hopping coroutine.
  rt.SpawnOn(0, HopAcrossLanes(&rt, &seen, &wg));
  ASSERT_TRUE(wg.WaitBlocking(Seconds(30))) << "lane hops hung";
  EXPECT_EQ(seen, (std::vector<int>{3, 3, 2, 2, 1, 1, 0, 0}));
  rt.Shutdown();
}

Co<void> AwaitCellOnLane(Runtime* rt, OneShot<int>* cell, int* got,
                         std::atomic<int>* resumed_on, WaitGroup* wg) {
  *got = co_await cell->Wait();
  resumed_on->store(rt->CurrentMachine());
  wg->Done();
}

Co<void> FireCellLater(Runtime* rt, OneShot<int>* cell, WaitGroup* wg) {
  co_await rt->Delay(Millis(2));
  cell->TryFire(7);
  wg->Done();
}

TEST(ThreadRuntimeLanesTest, CrossLaneFireResumesWaiterOnItsOwnLane) {
  // The lock manager depends on this: a grant fired from the releasing
  // transaction's lane must resume the blocked transaction on the lane
  // it suspended on, never steal it onto the firer's.
  ThreadRuntime rt(/*num_machines=*/1, /*workers_per_machine=*/4);
  rt.Start();
  OneShot<int> cell(&rt);
  WaitGroup wg(&rt);
  wg.Add(2);
  int got = 0;
  std::atomic<int> resumed_on{-1};
  rt.SpawnOn(1, AwaitCellOnLane(&rt, &cell, &got, &resumed_on, &wg));
  rt.SpawnOn(3, FireCellLater(&rt, &cell, &wg));
  ASSERT_TRUE(wg.WaitBlocking(Seconds(30))) << "cross-lane fire hung";
  EXPECT_EQ(got, 7);
  EXPECT_EQ(resumed_on.load(), 1);
  rt.Shutdown();
}

TEST(SimRuntimeLanesTest, RunOnNeverSuspendsUnderTheSim) {
  // Byte-determinism depends on this: under kSim, RunOn must neither
  // suspend nor schedule an event, whatever index it is handed.
  SimRuntime rt;
  bool after_hop = false;
  rt.Spawn([](Runtime* r, bool* flag) -> Co<void> {
    co_await r->RunOn(42);
    *flag = true;
  }(&rt, &after_hop));
  // Spawn runs the coroutine inline until its first suspension point —
  // reaching the flag without Run() proves the hop never suspended.
  EXPECT_TRUE(after_hop);
}

// ---------------------------------------------------------------------
// Yield: the fairness hook client sessions await between requests.

Co<void> YieldOnce(Runtime* rt, std::vector<std::string>* order,
                   WaitGroup* wg) {
  order->push_back("A before yield");
  co_await rt->Yield();
  order->push_back("A after yield");
  wg->Done();
}

Co<void> RunOnce(std::vector<std::string>* order, WaitGroup* wg) {
  order->push_back("B");
  wg->Done();
  co_return;
}

TEST(ThreadRuntimeLanesTest, YieldRunsTheLanesOtherReadyWorkFirst) {
  ThreadRuntime rt(/*num_machines=*/1);
  WaitGroup wg(&rt);
  wg.Add(2);
  std::vector<std::string> order;  // Touched only by lane 0.
  // Both enqueued before the lane starts, so A runs first and B waits
  // in the same FIFO ready queue.
  rt.SpawnOn(0, YieldOnce(&rt, &order, &wg));
  rt.SpawnOn(0, RunOnce(&order, &wg));
  rt.Start();
  ASSERT_TRUE(wg.WaitBlocking(Seconds(30))) << "yield hung";
  EXPECT_EQ(order, (std::vector<std::string>{"A before yield", "B",
                                             "A after yield"}));
  rt.Shutdown();
}

TEST(SimRuntimeLanesTest, YieldSchedulesNoEventUnderTheSim) {
  // Under kSim the simulated CPU charges already interleave the
  // machines; Yield must leave the event schedule untouched.
  SimRuntime rt;
  WaitGroup wg(&rt);
  wg.Add(1);
  std::vector<std::string> order;
  rt.Spawn(YieldOnce(&rt, &order, &wg));
  // Spawn runs the coroutine inline until its first suspension point,
  // so reaching the end without Run() proves Yield never suspended.
  EXPECT_EQ(order, (std::vector<std::string>{"A before yield",
                                             "A after yield"}));
  EXPECT_EQ(wg.pending(), 0);
  rt.simulator()->Run();
  EXPECT_EQ(rt.simulator()->events_processed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RuntimeBackendTest,
    ::testing::Values(RuntimeKind::kSim, RuntimeKind::kThreads),
    [](const ::testing::TestParamInfo<RuntimeKind>& info) {
      return std::string(runtime::RuntimeKindName(info.param));
    });

// ---------------------------------------------------------------------
// Golden-metrics regression: SimRuntime must be bit-for-bit identical
// to the pre-runtime-layer code. These numbers were captured from the
// simulator before the Runtime abstraction was introduced (PaperConfig,
// txns_per_thread=40, seed=1; backedge_prob=0 for the DAG protocols,
// whose copy graphs must be acyclic). If a change here is intentional,
// re-capture — but understand that it means the deterministic schedule
// moved for every user.

struct GoldenRun {
  core::Protocol protocol;
  int64_t committed;
  int64_t aborted;
  uint64_t messages;
  uint64_t bytes;
  Duration workload_elapsed;
  Duration drain_elapsed;
  uint64_t lock_waits;
  uint64_t lock_timeouts;
  // False runs without the bandwidth model (net_bandwidth_bytes_per_sec
  // = 0): byte counts then cannot move the schedule, so a change that
  // only shortens frames must leave every field but `bytes` as it is.
  bool bandwidth = true;
};

TEST(SimGoldenMetricsTest, RefactorPreservesScheduleBitForBit) {
  // Recaptured after the send-CPU fix (messages now depart only after
  // the sender's per-message CPU charge, shifting every schedule), and
  // again when lazy updates began carrying only the writes their
  // receiver needs (Routing::Project). That moved only `bytes` for the
  // DAG protocols (DAG(WT) 17788 -> 7932, DAG(T) 33477 -> 27052); the
  // same messages go to the same sites in the same order. BackEdge's
  // shorter frames also move its schedule through the bandwidth model
  // (committed 810 -> 812, bytes 27352 -> 16464, the latter also
  // without the origin commit time its frames no longer carry).
  // Recaptured once more when BackEdge's eager path (backedge start and
  // special hops) began carrying only the writes replicated on the rest
  // of its path, Eager's prepares only their participant's writes, and
  // the update header dropped its repeated origin site and empty
  // timestamp. The row without the bandwidth model shows that only bytes
  // moved (18348 -> 11643, every other field as before); under the model
  // the shorter frames reschedule BackEdge (committed 812 -> 787, bytes
  // 16464 -> 10402), and DAG(WT) 7932 -> 6684 and DAG(T) 27052 -> 26785
  // move only in bytes. Recaptured when DAG(T) timestamps began to travel
  // as per-channel deltas (only the tuples the channel has not seen): the
  // DAG(T) row without the bandwidth model was captured before that
  // change, and both DAG(T) rows then moved only in bytes
  // (26785 -> 23257). Recaptured when written values began to travel as
  // their difference from the message's own txn id (one byte instead of
  // eight, core/wire.h). Without the bandwidth model only bytes moved
  // (BackEdge 11643 -> 7226, DAG(T) 23257 -> 21325). Under the model
  // DAG(WT) (6684 -> 3541) and DAG(T) (23257 -> 21325) move only in
  // bytes, and the shorter frames reschedule BackEdge (committed
  // 787 -> 794, bytes 10402 -> 6152).
  const GoldenRun kGolden[] = {
      {core::Protocol::kBackEdge, 794, 286, 910, 6152, 1334987200,
       1334987200, 944, 287},
      {core::Protocol::kDagWt, 884, 196, 416, 3541, 1058780000, 1068780000,
       923, 196},
      {core::Protocol::kDagT, 901, 179, 1576, 21325, 1099780000, 1209780000,
       930, 179},
      {core::Protocol::kBackEdge, 816, 264, 1053, 7226, 1276790000,
       1276790000, 955, 264, /*bandwidth=*/false},
      {core::Protocol::kDagT, 902, 178, 1576, 21325, 1099780000, 1209780000,
       928, 178, /*bandwidth=*/false},
  };
  for (const GoldenRun& golden : kGolden) {
    SCOPED_TRACE(core::ProtocolName(golden.protocol) +
                 (golden.bandwidth ? "" : " without bandwidth"));
    core::SystemConfig config = harness::PaperConfig(golden.protocol);
    config.workload.txns_per_thread = 40;
    config.seed = 1;
    if (golden.protocol != core::Protocol::kBackEdge) {
      config.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
    }
    if (!golden.bandwidth) config.costs.net_bandwidth_bytes_per_sec = 0;
    auto system = core::System::Create(config);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    core::RunMetrics m = (*system)->Run();
    EXPECT_EQ(m.committed, golden.committed);
    EXPECT_EQ(m.aborted, golden.aborted);
    EXPECT_EQ(m.messages, golden.messages);
    EXPECT_EQ(m.bytes, golden.bytes);
    EXPECT_EQ(m.workload_elapsed, golden.workload_elapsed);
    EXPECT_EQ(m.drain_elapsed, golden.drain_elapsed);
    EXPECT_EQ(m.lock_waits, golden.lock_waits);
    EXPECT_EQ(m.lock_timeouts, golden.lock_timeouts);
    EXPECT_TRUE(m.serializable);
    EXPECT_TRUE(m.converged);
    EXPECT_FALSE(m.timed_out);
  }
}

// ---------------------------------------------------------------------
// Cross-backend equivalence: a real-threads run cannot reproduce the
// sim's schedule, but the protocol invariants must hold regardless of
// interleaving — every primary resolves, the global history stays
// serializable, and replicas converge after drain.

TEST(ThreadRuntimeSystemTest, BackEdgeSerializableAndConvergedAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    core::SystemConfig config =
        harness::PaperConfig(core::Protocol::kBackEdge);
    config.runtime = RuntimeKind::kThreads;
    config.workload.txns_per_thread = 10;
    config.seed = seed;
    auto system = core::System::Create(config);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    core::RunMetrics m = (*system)->Run();
    const int64_t total =
        static_cast<int64_t>(config.workload.num_sites) *
        config.workload.threads_per_site * config.workload.txns_per_thread;
    EXPECT_EQ(m.committed + m.aborted, total);
    EXPECT_TRUE(m.serializable) << m.verdict;
    EXPECT_TRUE(m.reads_consistent);
    EXPECT_TRUE(m.converged);
    EXPECT_FALSE(m.timed_out);
  }
}

}  // namespace
}  // namespace lazyrep
