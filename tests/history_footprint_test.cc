// Heap footprint of the history recorder and of CheckSerializability
// (src/core/history.*), measured by replacing the global operator new
// and delete with counting versions — which is why this is a binary of
// its own.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/history.h"

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

}  // namespace
}  // namespace lazyrep::core
