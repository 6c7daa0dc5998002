// System-level tests for the batching layer (docs/PERFORMANCE.md §6):
// transport frame coalescing and WAL group commit running under the real
// protocols, on both runtimes.
//
//  - Full-stack sweep: the three lazy tree protocols with every batching
//    knob on stay serializable, read-consistent and convergent — on the
//    sim and on the threads runtime with four worker lanes per machine
//    (the tier CI runs under TSan). DAG(T)'s in-engine timestamp-order
//    CHECK makes any cross-batch reordering fatal, not just wrong.
//  - Exactly-once under drop/dup with coalescing and delayed acks.
//  - WAL replay == final store at every site with group commit on.
//  - Sim determinism: same seed, same schedule, batching on.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "storage/item_store.h"
#include "storage/wal.h"

namespace lazyrep {
namespace {

using core::Protocol;
using fault::FaultPlan;
using runtime::RuntimeKind;

// See the dilation note in fault_test.cc: the threads chaos tier is
// paced in real time and TSan slows the executors ~10x. The coalescing
// window stretches with them, or an undilated window rarely catches two
// frames and nothing batches.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
constexpr int64_t kTimeDilation = 10;
#else
constexpr int64_t kTimeDilation = 1;
#endif

core::SystemConfig BatchedConfig(Protocol protocol, RuntimeKind kind,
                                 uint64_t seed, int workers = 1) {
  core::SystemConfig config = harness::PaperConfig(protocol);
  config.runtime = kind;
  config.seed = seed;
  config.workers_per_site = workers;
  config.enable_wal = true;
  if (protocol != Protocol::kBackEdge) {
    config.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
  }
  config.batching.window = Millis(2);
  if (kind == RuntimeKind::kSim) {
    config.workload.txns_per_thread = 40;
  } else {
    const int64_t d = kTimeDilation;
    config.workload.txns_per_thread = 10;
    config.workload.deadlock_timeout *= d;
    config.engine.epoch_period *= d;
    config.engine.dummy_period *= d;
    // The transport's ack fallback and RTO are constants: undilated.
    config.batching.window *= d;
  }
  config.batching.wal_group_commit = true;
  return config;
}

// Runs one batched configuration and asserts the paper's correctness
// properties plus the batching-specific ones: the transport actually
// coalesced, and every site's WAL replays to exactly its
// final store (group commit defers sync boundaries, never redo records).
void RunBatched(core::SystemConfig config, bool expect_batches = true) {
  auto system = core::System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  core::System& sys = **system;
  core::RunMetrics m = sys.Run();

  EXPECT_FALSE(m.timed_out);
  EXPECT_GT(m.committed, 0);
  EXPECT_TRUE(m.serializable) << m.verdict;
  EXPECT_TRUE(m.reads_consistent);
  EXPECT_TRUE(m.converged);

  ASSERT_NE(sys.transport(), nullptr);
  EXPECT_TRUE(sys.transport()->Quiescent());
  if (expect_batches) {
    EXPECT_GT(sys.transport()->batch_frames_sent(), 0u);
  }

  // Redo recovery reproduces every site's final image — deferring the
  // sync boundary must never reorder or drop redo records.
  const int num_sites = sys.config().workload.num_sites;
  size_t total_syncs = 0;
  size_t total_commit_records = 0;
  for (SiteId s = 0; s < num_sites; ++s) {
    storage::Database& db = sys.database(s);
    ASSERT_NE(db.wal(), nullptr);
    storage::ItemStore replayed;
    for (const auto& [item, value] : db.store().Snapshot()) {
      replayed.AddItem(item, 0);
    }
    db.wal()->Replay(&replayed);
    EXPECT_EQ(replayed.Snapshot(), db.store().Snapshot())
        << "WAL replay diverged from the live store at site " << s;
    total_syncs += db.wal()->sync_batches();
    for (const storage::Wal::Record& r : db.wal()->records()) {
      if (r.type == storage::Wal::RecordType::kCommit) {
        ++total_commit_records;
      }
    }
  }
  // Group commit's point: fewer sync boundaries than commit records
  // (every secondary subtransaction writes a commit record; coalesced
  // delivery lets several of them share one boundary).
  EXPECT_GT(total_syncs, 0u);
  if (expect_batches) {
    EXPECT_LT(total_syncs, total_commit_records);
  }
}

class BatchingSweep
    : public ::testing::TestWithParam<std::tuple<Protocol, RuntimeKind>> {};

TEST_P(BatchingSweep, SerializableConvergedAndRecoverable) {
  auto [protocol, kind] = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const int workers = kind == RuntimeKind::kThreads ? 4 : 1;
    RunBatched(BatchedConfig(protocol, kind, seed, workers));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

std::string SweepParamName(
    const ::testing::TestParamInfo<std::tuple<Protocol, RuntimeKind>>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case Protocol::kDagWt: name = "DagWt"; break;
    case Protocol::kDagT: name = "DagT"; break;
    case Protocol::kBackEdge: name = "BackEdge"; break;
    default: name = "Other"; break;
  }
  name += std::get<1>(info.param) == RuntimeKind::kSim ? "_Sim"
                                                       : "_ThreadsWorkers4";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, BatchingSweep,
    ::testing::Combine(::testing::Values(Protocol::kDagWt, Protocol::kDagT,
                                         Protocol::kBackEdge),
                       ::testing::Values(RuntimeKind::kSim,
                                         RuntimeKind::kThreads)),
    SweepParamName);

// Coalesced frames + delayed acks over a lossy wire: the ARQ layer
// must still deliver exactly once in order (DAG(T)'s timestamp CHECK and
// the serializability verdict would both trip on any slip).
TEST(BatchingFaultsTest, ExactlyOnceUnderDropDupWithPiggybackedAcks) {
  for (Protocol protocol :
       {Protocol::kDagWt, Protocol::kDagT, Protocol::kBackEdge}) {
    SCOPED_TRACE(core::ProtocolName(protocol));
    core::SystemConfig config =
        BatchedConfig(protocol, RuntimeKind::kSim, /*seed=*/5);
    FaultPlan plan;
    plan.drop_prob = 0.02;
    plan.dup_prob = 0.02;
    config.faults = plan;
    RunBatched(std::move(config));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Same seed, batching on: the sim schedule stays bit-deterministic
// (flush timers and ack fallbacks are sim events like any other).
TEST(BatchingDeterminismTest, SameSeedSameSchedule) {
  core::RunMetrics runs[2];
  for (int i = 0; i < 2; ++i) {
    auto system = core::System::Create(
        BatchedConfig(Protocol::kDagT, RuntimeKind::kSim, /*seed=*/3));
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

// The bench baseline arm: force_transport routes traffic through the ARQ
// layer with every batching knob off — one frame per message, no batch
// frames, no deferred syncs — and acks that still go out delayed.
TEST(BatchingBaselineTest, ForceTransportAloneChangesNothing) {
  core::SystemConfig config =
      BatchedConfig(Protocol::kDagWt, RuntimeKind::kSim, /*seed=*/2);
  config.batching = core::BatchingOptions{};
  config.batching.force_transport = true;
  auto system = core::System::Create(std::move(config));
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  core::System& sys = **system;
  core::RunMetrics m = sys.Run();
  EXPECT_TRUE(m.serializable) << m.verdict;
  EXPECT_TRUE(m.converged);
  ASSERT_NE(sys.transport(), nullptr);
  EXPECT_TRUE(sys.transport()->Quiescent());
  EXPECT_EQ(sys.transport()->batch_frames_sent(), 0u);
  EXPECT_GT(sys.transport()->acks_standalone(), 0u);
}

}  // namespace
}  // namespace lazyrep
