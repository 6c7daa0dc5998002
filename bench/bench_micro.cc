// Substrate microbenchmarks (google-benchmark): the data-structure and
// event-loop costs underlying the protocol simulations. Not a paper
// figure; used to keep the simulator fast enough for full Table 1 scale.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/history.h"
#include "core/messages.h"
#include "core/timestamp.h"
#include "core/wire.h"
#include "graph/copy_graph.h"
#include "graph/feedback_arc_set.h"
#include "graph/tree.h"
#include "net/network.h"
#include "obs/registry.h"
#include "runtime/sim_runtime.h"
#include "runtime/thread_runtime.h"
#include "sim/primitives.h"
#include "sim/simulator.h"
#include "storage/lock_manager.h"
#include "workload/generator.h"

namespace lazyrep {
namespace {

void BM_TimestampCompare(benchmark::State& state) {
  core::Timestamp a, b;
  for (int s = 0; s < state.range(0); ++s) {
    a = a.ExtendedWith(s, s * 3, 0);
    b = b.ExtendedWith(s, s == state.range(0) / 2 ? s * 3 + 1 : s * 3, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Timestamp::Compare(a, b));
  }
}
BENCHMARK(BM_TimestampCompare)->Arg(2)->Arg(8)->Arg(16);

void BM_TimestampExtend(benchmark::State& state) {
  core::Timestamp base;
  for (int s = 0; s < 8; ++s) base = base.ExtendedWith(s, s, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.ExtendedWith(9, 1, 0));
  }
}
BENCHMARK(BM_TimestampExtend);

void BM_SimulatorEventLoop(benchmark::State& state) {
  // Cost of scheduling + dispatching one Delay event.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    int64_t n = state.range(0);
    sim.Spawn([](sim::Simulator* s, int64_t count) -> sim::Co<void> {
      for (int64_t i = 0; i < count; ++i) co_await s->Delay(1);
    }(&sim, n));
    state.ResumeTiming();
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventLoop)->Arg(10000);

void BM_LockAcquireRelease(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    runtime::SimRuntime rt;
    storage::LockManager locks(&rt, {});
    auto txn = std::make_shared<storage::Transaction>(
        GlobalTxnId{0, 1}, storage::TxnKind::kPrimary, 0, 0);
    int64_t n = state.range(0);
    state.ResumeTiming();
    rt.Spawn([](storage::LockManager* lm, storage::TxnPtr t,
                int64_t count) -> runtime::Co<void> {
      for (int64_t i = 0; i < count; ++i) {
        (void)co_await lm->Acquire(t.get(), static_cast<ItemId>(i % 64),
                                   storage::LockMode::kExclusive);
        lm->ReleaseAll(t.get());
      }
    }(&locks, txn, n));
    rt.simulator()->Run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LockAcquireRelease)->Arg(10000);

void BM_PlacementAndCopyGraph(benchmark::State& state) {
  workload::Params params;
  params.num_items = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    graph::Placement p = workload::GeneratePlacement(params, &rng);
    graph::CopyGraph g = graph::CopyGraph::FromPlacement(p);
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_PlacementAndCopyGraph)->Arg(200)->Arg(2000);

void BM_GreedyFeedbackArcSet(benchmark::State& state) {
  Rng rng(11);
  graph::CopyGraph g(static_cast<int>(state.range(0)));
  for (SiteId a = 0; a < g.num_sites(); ++a) {
    for (SiteId b = 0; b < g.num_sites(); ++b) {
      if (a != b && rng.Bernoulli(0.3)) g.AddEdge(a, b);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GreedyFeedbackArcSet(g));
  }
}
BENCHMARK(BM_GreedyFeedbackArcSet)->Arg(9)->Arg(15);

void BM_SerializabilityCheck(benchmark::State& state) {
  // Synthetic history: `n` transactions touching overlapping items at 9
  // sites.
  core::HistoryRecorder recorder;
  Rng rng(13);
  int64_t n = state.range(0);
  std::map<SiteId, int64_t> seq;
  for (int64_t i = 0; i < n; ++i) {
    core::HistoryRecorder::Record r;
    r.site = static_cast<SiteId>(rng.Below(9));
    r.origin = GlobalTxnId{r.site, i};
    r.commit_seq = seq[r.site]++;
    std::vector<ItemId> reads, writes;
    for (int k = 0; k < 7; ++k) {
      reads.push_back(static_cast<ItemId>(rng.Below(200)));
    }
    for (int k = 0; k < 3; ++k) {
      writes.push_back(static_cast<ItemId>(rng.Below(200)));
    }
    r.reads = reads;
    r.writes = writes;
    recorder.AddRecord(std::move(r));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::CheckSerializability(recorder));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SerializabilityCheck)->Arg(1000)->Arg(10000);

void BM_TreeBuild(benchmark::State& state) {
  Rng rng(17);
  graph::CopyGraph dag(static_cast<int>(state.range(0)));
  for (SiteId a = 0; a < dag.num_sites(); ++a) {
    for (SiteId b = a + 1; b < dag.num_sites(); ++b) {
      if (rng.Bernoulli(0.3)) dag.AddEdge(a, b);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::BuildGreedyTree(dag));
  }
}
BENCHMARK(BM_TreeBuild)->Arg(15);

// ---- message hot path (wire codec, network bookkeeping, executor
// injection) — the BENCH_hotpath.json cases -----------------------------

/// A representative DAG(T) secondary: 3 writes, a 3-tuple timestamp —
/// the payload shape that dominates Table 1 traffic.
core::ProtocolMessage SampleSecondary() {
  core::SecondaryUpdate u;
  u.origin = GlobalTxnId{3, 12345};
  u.origin_site = 3;
  u.origin_commit_time = Millis(123.456);
  u.writes = {{7, 111}, {42, -5}, {199, int64_t{1} << 30}};
  u.ts = core::Timestamp::Initial(0).ExtendedWith(2, 9, 0).ExtendedWith(
      5, 1, 0);
  return u;
}

void BM_WireEncode(benchmark::State& state) {
  core::ProtocolMessage msg = SampleSecondary();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Wire::Encode(msg));
  }
}
BENCHMARK(BM_WireEncode);

void BM_WireEncodeReliableFrame(benchmark::State& state) {
  // The ReliableTransport send path: encode the inner message, wrap it
  // in a sequenced ReliableData frame, encode the frame for the wire.
  core::ProtocolMessage msg = SampleSecondary();
  for (auto _ : state) {
    core::ReliableData data;
    data.seq = 42;
    data.inner = core::Wire::Encode(msg);
    benchmark::DoNotOptimize(
        core::Wire::Encode(core::ProtocolMessage(std::move(data))));
  }
}
BENCHMARK(BM_WireEncodeReliableFrame);

void BM_WireDecode(benchmark::State& state) {
  std::vector<uint8_t> bytes = core::Wire::Encode(SampleSecondary());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Wire::Decode(bytes));
  }
}
BENCHMARK(BM_WireDecode);

void BM_WireDecodeReliableData(benchmark::State& state) {
  core::ReliableData data;
  data.seq = 42;
  data.inner = core::Wire::Encode(SampleSecondary());
  std::vector<uint8_t> bytes =
      core::Wire::Encode(core::ProtocolMessage(std::move(data)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Wire::Decode(bytes));
  }
}
BENCHMARK(BM_WireDecodeReliableData);

void BM_NetworkPostDeliver(benchmark::State& state) {
  // Full Post -> Dispatch -> Deliver -> handler path under SimRuntime
  // with the production configuration: sizer, per-kind metrics, jitter
  // and point-to-point bandwidth (the per-channel link path).
  using Net = net::Network<core::ProtocolMessage>;
  const int64_t n = state.range(0);
  core::ProtocolMessage msg = SampleSecondary();
  for (auto _ : state) {
    state.PauseTiming();
    runtime::SimRuntime rt;
    obs::MetricsRegistry registry;
    Net::Config cfg;
    cfg.jitter = Micros(20);
    cfg.bandwidth_bytes_per_sec = 1250000;
    cfg.shared_medium = false;
    Net net(&rt, 4, cfg, {nullptr, nullptr, nullptr, nullptr}, Rng(1));
    net.SetSizer([](const core::ProtocolMessage& m) {
      return core::Wire::EncodedSize(m);
    });
    net.SetMetrics(&registry, core::kNumMessageMetricKinds,
                   core::MessageMetricKind, [](int kind) {
                     return std::string(core::MessageMetricKindName(kind));
                   });
    int64_t handled = 0;
    net.SetHandler(3, [&handled](Net::Envelope) { ++handled; });
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      net.Post(static_cast<SiteId>(i % 3), 3, msg);
    }
    rt.simulator()->Run();
    benchmark::DoNotOptimize(handled);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NetworkPostDeliver)->Arg(4096);

void BM_CrossMachineEnqueue(benchmark::State& state) {
  // ThreadRuntime cross-machine scheduling: machine 0 floods machine 1
  // with timed callbacks (the network-delivery pattern) while machine
  // 1's run loop drains them.
  const int64_t n = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    runtime::ThreadRuntime rt(2);
    std::atomic<int64_t> delivered{0};
    rt.Start();
    state.ResumeTiming();
    rt.ScheduleCallbackOn(0, 0, [&rt, &delivered, n] {
      for (int64_t i = 0; i < n; ++i) {
        rt.ScheduleCallbackAtOn(1, rt.Now(), [&delivered] {
          delivered.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
    while (delivered.load(std::memory_order_acquire) < n) {
      std::this_thread::yield();
    }
    state.PauseTiming();
    rt.Shutdown();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
// Wall-clock: the work happens on the executor threads, not the driver.
BENCHMARK(BM_CrossMachineEnqueue)->Arg(20000)->UseRealTime();

}  // namespace
}  // namespace lazyrep

// Custom main instead of BENCHMARK_MAIN(): translate the repo-wide
// `--json=PATH` convention (shared with the protocol benches) into
// google-benchmark's native JSON reporter flags before initialization.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, format_flag;
  for (auto it = args.begin(); it != args.end(); ++it) {
    constexpr const char* kJson = "--json=";
    if (std::strncmp(*it, kJson, std::strlen(kJson)) == 0) {
      out_flag = std::string("--benchmark_out=") + (*it + std::strlen(kJson));
      format_flag = "--benchmark_out_format=json";
      it = args.erase(it);
      args.push_back(out_flag.data());
      args.push_back(format_flag.data());
      break;
    }
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
