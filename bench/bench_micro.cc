// Substrate microbenchmarks (google-benchmark): the data-structure and
// event-loop costs underlying the protocol simulations. Not a paper
// figure; used to keep the simulator fast enough for full Table 1 scale.

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/history.h"
#include "core/streaming_oracle.h"
#include "core/timestamp.h"
#include "graph/copy_graph.h"
#include "graph/feedback_arc_set.h"
#include "graph/tree.h"
#include "sim/simulator.h"
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

/// Synthetic history: `n` transactions touching overlapping items at 9
/// sites.
void SyntheticHistory(int64_t n, core::HistoryRecorder* recorder) {
  Rng rng(13);
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
    recorder->AddRecord(std::move(r));
  }
}

void BM_StreamingOracle(benchmark::State& state) {
  // The synthetic history fed record by record, as commits would arrive.
  core::HistoryRecorder recorder;
  SyntheticHistory(state.range(0), &recorder);
  for (auto _ : state) {
    core::StreamingOracle oracle;
    for (const core::HistoryRecorder::Record& r : recorder.records()) {
      oracle.AddRecord(core::HistoryRecorder::Record(r));
    }
    benchmark::DoNotOptimize(oracle.Serializability());
  }
  const double records =
      static_cast<double>(state.iterations() * state.range(0));
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["ns_per_record"] = benchmark::Counter(
      records / 1e9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_StreamingOracle)->Arg(1000)->Arg(10000);

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
