// Heap footprint of the history recorder, of CheckSerializability
// (src/core/history.*) and of a threads run checked by the streaming
// oracle (src/core/streaming_oracle.*), measured by replacing the global
// operator new and delete with counting versions — which is why this is
// a binary of its own.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"
#include "core/system.h"

namespace {

// Live heap bytes and blocks through operator new, and the most bytes
// live at once since the last ResetPeak().
std::atomic<size_t> g_live_bytes{0};
std::atomic<size_t> g_live_blocks{0};
std::atomic<size_t> g_peak_bytes{0};

// Each block is preceded by a header holding its size.
constexpr size_t kHeader = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

// Null when out of memory.
void* CountedNew(size_t size) noexcept {
  char* raw = static_cast<char*>(std::malloc(kHeader + size));
  if (raw == nullptr) return nullptr;
  *reinterpret_cast<size_t*>(raw) = size;
  const size_t live = g_live_bytes.fetch_add(size) + size;
  g_live_blocks.fetch_add(1);
  size_t peak = g_peak_bytes.load();
  while (live > peak && !g_peak_bytes.compare_exchange_weak(peak, live)) {
  }
  return raw + kHeader;
}

void CountedDelete(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*reinterpret_cast<size_t*>(raw));
  g_live_blocks.fetch_sub(1);
  std::free(raw);
}

void ResetPeak() { g_peak_bytes.store(g_live_bytes.load()); }


void* CountedNewOrThrow(size_t size) {
  void* p = CountedNew(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form but the over-aligned ones, which nothing here
// uses: a sanitizer runtime may serve any form left out itself.
void* operator new(size_t size) { return CountedNewOrThrow(size); }
void* operator new[](size_t size) { return CountedNewOrThrow(size); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return CountedNew(size);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return CountedNew(size);
}
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, size_t) noexcept { CountedDelete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedDelete(p);
}

namespace lazyrep::core {
namespace {

TEST(HistoryFootprintTest, RecordsLeaveNoHeapBlockOfTheirOwn) {
  // Every record has all four blocks. The recorder copies them into its
  // arena, so what stays allocated is the deque's buffers for the record
  // headers (six to a buffer) and the arena's chunks: well under one
  // block per five records, where separately allocated blocks would be
  // four per record.
  constexpr int kRecords = 10000;
  HistoryRecorder recorder;
  const size_t blocks_before = g_live_blocks.load();
  for (int i = 0; i < kRecords; ++i) {
    HistoryRecorder::Record r;
    r.site = i % 4;
    r.origin = GlobalTxnId{i % 4, i};
    r.commit_seq = i;
    r.reads = {i, i + 1};
    r.writes = {i};
    r.reads_observed = {{i, 1}, {i + 1, 2}};
    r.writes_final = {{i, 3}};
    recorder.AddRecord(std::move(r));
  }
  const size_t blocks = g_live_blocks.load() - blocks_before;
  EXPECT_LT(blocks, size_t{kRecords / 5}) << blocks << " blocks live";
  EXPECT_EQ(recorder.records()[kRecords - 1].reads,
            (std::vector<ItemId>{kRecords - 1, kRecords}));
}

TEST(HistoryFootprintTest, CheckSerializabilityPeakIsAboutSixBytesPerEdge) {
  // One site, K * K items in a K x K grid, rounds of K commits. In even
  // rounds commit r writes row r, in odd rounds column r, so every commit
  // after the first round overwrites K items last written by K different
  // commits: K distinct write-write edges in, none repeated.
  constexpr int kK = 64;
  constexpr int kRounds = 52;
  HistoryRecorder recorder;
  int64_t seq = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int r = 0; r < kK; ++r) {
      HistoryRecorder::Record record;
      record.site = 0;
      record.origin = GlobalTxnId{0, seq};
      record.commit_seq = seq++;
      std::vector<ItemId> writes;
      for (int k = 0; k < kK; ++k) {
        writes.push_back(round % 2 == 0 ? r * kK + k : k * kK + r);
      }
      record.writes = writes;
      recorder.AddRecord(std::move(record));
    }
  }
  const size_t commits = recorder.records().size();

  ResetPeak();
  const size_t live_before = g_live_bytes.load();
  const SerializabilityVerdict verdict = CheckSerializability(recorder);
  const size_t peak = g_peak_bytes.load() - live_before;

  EXPECT_TRUE(verdict.serializable);
  EXPECT_EQ(verdict.nodes, commits);
  ASSERT_EQ(verdict.edges, size_t{(kRounds - 1) * kK * kK});
  ASSERT_GE(verdict.edges, 200000u);
  // A packed 8-byte edge array beside the 4-byte successor array needs
  // 12 bytes per edge on its own.
  EXPECT_LE(peak, 6 * verdict.edges + 48 * commits)
      << peak << " bytes at peak: "
      << static_cast<double>(peak) / static_cast<double>(verdict.edges)
      << " per edge";
}

/// What a threads DAG(WT) run of `txns_per_thread` leaves behind.
struct RunFootprint {
  int64_t committed = 0;
  size_t live_bytes = 0;  // Heap still live when Run returns.
  size_t records = 0;     // Held by the history.
  StreamingOracle::Stats oracle;
};

RunFootprint RunDagWt(int txns_per_thread) {
  SystemConfig config;
  config.protocol = Protocol::kDagWt;
  config.runtime = runtime::RuntimeKind::kThreads;
  config.seed = 7;
  config.workload.num_sites = 6;
  config.workload.sites_per_machine = 3;
  config.workload.num_items = 60;
  config.workload.threads_per_site = 2;
  config.workload.txns_per_thread = txns_per_thread;
  config.workload.replication_prob = 0.3;
  config.workload.backedge_prob = 0;
  config.max_sim_time = Seconds(120);
  const size_t live_before = g_live_bytes.load();
  RunFootprint out;
  {
    auto system = System::Create(std::move(config));
    LAZYREP_CHECK(system.ok()) << system.status().ToString();
    const RunMetrics metrics = (*system)->Run();
    LAZYREP_CHECK(!metrics.timed_out && metrics.serializable)
        << metrics.verdict;
    out.committed = metrics.committed;
    out.live_bytes = g_live_bytes.load() - live_before;
    out.records = (*system)->history().records().size();
    out.oracle = (*system)->oracle()->stats();
  }
  return out;
}

TEST(HistoryFootprintTest, ThreadsRunStateDoesNotGrowWithLength) {
  // An untraced threads run keeps no history: the oracle holds only the
  // transactions still in flight, so running four times as long must not
  // grow what it holds, and the run leaves behind only its per-commit
  // metric samples (tens of bytes per transaction, where the history
  // alone took hundreds).
  const RunFootprint one = RunDagWt(60);
  const RunFootprint four = RunDagWt(240);
  ASSERT_GT(four.committed, 3 * one.committed);
  EXPECT_EQ(one.records, 0u);
  EXPECT_EQ(four.records, 0u);
  EXPECT_GT(four.oracle.records, 3 * one.oracle.records);
  EXPECT_EQ(four.oracle.live_txns, 0u);
  EXPECT_LE(four.oracle.peak_live_txns, 2 * one.oracle.peak_live_txns + 32)
      << one.oracle.peak_live_txns << " live at 1x";
  EXPECT_LE(four.oracle.heap_bytes, one.oracle.heap_bytes * 3 / 2 + 16384)
      << one.oracle.heap_bytes << " bytes at 1x";
  const double extra_txns =
      static_cast<double>(four.committed - one.committed);
  const double bytes_per_txn =
      (static_cast<double>(four.live_bytes) -
       static_cast<double>(one.live_bytes)) / extra_txns;
  EXPECT_LT(bytes_per_txn, 64.0)
      << one.live_bytes << " bytes live after 1x, " << four.live_bytes
      << " after 4x";
}

}  // namespace
}  // namespace lazyrep::core
