// Tests for the protocol event trace (src/core/trace.*) and its wiring
// through the System's observer seams.

#include <sstream>

#include <gtest/gtest.h>

#include "core/system.h"

namespace lazyrep::core {
namespace {

TEST(TraceLogTest, RecordsAndFilters) {
  TraceLog log;
  TraceEvent commit;
  commit.kind = TraceEvent::Kind::kTxnCommit;
  commit.time = Millis(1);
  commit.site = 2;
  log.Record(commit);
  TraceEvent post;
  post.kind = TraceEvent::Kind::kMsgPost;
  post.time = Millis(2);
  log.Record(post);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.OfKind(TraceEvent::Kind::kTxnCommit).size(), 1u);
  EXPECT_EQ(log.OfKind(TraceEvent::Kind::kMsgPost).size(), 1u);
  EXPECT_EQ(log.OfKind(TraceEvent::Kind::kLockWait).size(), 0u);
}

// Satellite regression: readers get an independent copy taken under the
// recording mutex, so records landing after the read are not visible
// through an already-taken snapshot (the old accessors returned live
// references into the deque).
TEST(TraceLogTest, ReadersSnapshotIndependently) {
  TraceLog log;
  TraceEvent e;
  e.kind = TraceEvent::Kind::kMsgPost;
  log.Record(e);
  std::vector<TraceEvent> snapshot = log.events();
  std::vector<TraceEvent> posts = log.OfKind(TraceEvent::Kind::kMsgPost);
  log.Record(e);
  EXPECT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(posts.size(), 1u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(TraceLogTest, CapTruncates) {
  TraceLog log(3);
  for (int i = 0; i < 10; ++i) log.Record(TraceEvent{});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_TRUE(log.truncated());
}

TEST(TraceLogTest, JsonlRendering) {
  TraceLog log;
  TraceEvent e;
  e.time = Millis(1.5);
  e.kind = TraceEvent::Kind::kMsgPost;
  e.site = 0;
  e.peer = 2;
  e.txn = GlobalTxnId{0, 7};
  e.detail = "secondary";
  log.Record(e);
  std::ostringstream out;
  log.WriteJsonl(out);
  EXPECT_EQ(out.str(),
            "{\"t_us\":1500,\"kind\":\"msg_post\",\"site\":0,"
            "\"txn\":\"s0#7\",\"peer\":2,\"detail\":\"secondary\"}\n");
}

TEST(MessageKindTest, NamesAndOrigins) {
  SecondaryUpdate u;
  u.origin = GlobalTxnId{1, 5};
  EXPECT_EQ(MessageKindName(ProtocolMessage(u)), "secondary");
  u.is_dummy = true;
  EXPECT_EQ(MessageKindName(ProtocolMessage(u)), "dummy");
  u.is_dummy = false;
  u.is_special = true;
  EXPECT_EQ(MessageKindName(ProtocolMessage(u)), "special_secondary");
  EXPECT_EQ(MessageOrigin(ProtocolMessage(u)), (GlobalTxnId{1, 5}));
  EXPECT_EQ(MessageKindName(ProtocolMessage(TpcPrepare{})), "2pc_prepare");
  EXPECT_EQ(MessageKindName(ProtocolMessage(PslRelease{})), "psl_release");
}

SystemConfig TracedConfig(Protocol protocol) {
  SystemConfig config;
  config.protocol = protocol;
  config.enable_trace = true;
  config.seed = 3;
  config.workload.num_sites = 3;
  config.workload.sites_per_machine = 3;
  config.workload.num_items = 30;
  config.workload.threads_per_site = 2;
  config.workload.txns_per_thread = 15;
  config.workload.backedge_prob =
      protocol == Protocol::kBackEdge ? 0.5 : 0.0;
  return config;
}

TEST(SystemTraceTest, CapturesCommitsAndMessages) {
  auto system = System::Create(TracedConfig(Protocol::kDagWt));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  ASSERT_NE(sys.trace(), nullptr);
  const TraceLog& trace = *sys.trace();
  // Every commit observed: primaries + secondaries.
  EXPECT_GE(static_cast<int64_t>(
                trace.OfKind(TraceEvent::Kind::kTxnCommit).size()),
            metrics.committed);
  // Post and deliver counts match and equal the network's tally.
  EXPECT_EQ(trace.OfKind(TraceEvent::Kind::kMsgPost).size(),
            sys.network().Snapshot().total_messages);
  EXPECT_EQ(trace.OfKind(TraceEvent::Kind::kMsgDeliver).size(),
            sys.network().Snapshot().total_messages);
  // Aborts traced with a reason.
  if (metrics.aborted > 0) {
    auto aborts = trace.OfKind(TraceEvent::Kind::kTxnAbort);
    ASSERT_FALSE(aborts.empty());
    EXPECT_FALSE(aborts[0].detail.empty());
  }
}

// An observer added to a traced run sits beside the trace's, not in
// its place: both see every post and every delivery.
TEST(SystemTraceTest, ExtraObserverKeepsTheTracesMessageEvents) {
  auto system = System::Create(TracedConfig(Protocol::kDagWt));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  uint64_t posts = 0;
  uint64_t delivers = 0;
  sys.network().AddObserver(
      [&](const ProtocolNetwork::Envelope&, bool delivered) {
        ++(delivered ? delivers : posts);
      });
  sys.Run();
  const uint64_t total = sys.network().Snapshot().total_messages;
  ASSERT_GT(total, 0u);
  EXPECT_EQ(posts, total);
  EXPECT_EQ(delivers, total);
  const TraceLog& trace = *sys.trace();
  EXPECT_EQ(trace.OfKind(TraceEvent::Kind::kMsgPost).size(), total);
  EXPECT_EQ(trace.OfKind(TraceEvent::Kind::kMsgDeliver).size(), total);
}

TEST(SystemTraceTest, LockWaitsAndTimeoutsTraced) {
  SystemConfig config = TracedConfig(Protocol::kBackEdge);
  config.workload.num_items = 6;  // Hot items force waits.
  config.workload.read_txn_prob = 0.0;
  config.workload.read_op_prob = 0.3;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  RunMetrics metrics = sys.Run();
  const TraceLog& trace = *sys.trace();
  EXPECT_EQ(trace.OfKind(TraceEvent::Kind::kLockWait).size(),
            metrics.lock_waits);
  EXPECT_EQ(trace.OfKind(TraceEvent::Kind::kLockTimeout).size(),
            metrics.lock_timeouts);
  EXPECT_GT(metrics.lock_waits, 0u);
}

TEST(SystemTraceTest, DisabledByDefault) {
  SystemConfig config = TracedConfig(Protocol::kDagWt);
  config.enable_trace = false;
  auto system = System::Create(std::move(config));
  ASSERT_TRUE(system.ok());
  (*system)->Run();
  EXPECT_EQ((*system)->trace(), nullptr);
}

TEST(SystemTraceTest, MessageKindsVisibleInTrace) {
  auto system = System::Create(TracedConfig(Protocol::kBackEdge));
  ASSERT_TRUE(system.ok());
  System& sys = **system;
  sys.Run();
  std::set<std::string> kinds;
  for (const TraceEvent& e : sys.trace()->events()) {
    if (e.kind == TraceEvent::Kind::kMsgPost) kinds.insert(e.detail);
  }
  // A cyclic BackEdge run exercises both lazy and eager machinery.
  EXPECT_TRUE(kinds.count("secondary"));
  EXPECT_TRUE(kinds.count("backedge_start"));
  EXPECT_TRUE(kinds.count("special_secondary"));
  EXPECT_TRUE(kinds.count("2pc_prepare"));
}

}  // namespace
}  // namespace lazyrep::core
