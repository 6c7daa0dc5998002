// Per-destination write projection (Routing::Project): every lazy
// update an engine posts carries exactly the origin's writes its
// receiver needs — those replicated in the receiver's tree subtree
// (DAG(WT), BackEdge's lazy path) or at the receiver itself (DAG(T),
// NaiveLazy) — and never none. A network observer records each posted
// real SecondaryUpdate; the run's history supplies each origin's
// committed writes to compare against. Dummies and BackEdge's specials
// carry no projection and are skipped.

#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.h"
#include "harness/experiment.h"

namespace lazyrep::core {
namespace {

struct Case {
  const char* name;
  Protocol protocol;
  runtime::RuntimeKind runtime;
};

// Keeps the listed parameter a name, not raw bytes holding a pointer.
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

struct Posted {
  SiteId dst;
  SecondaryUpdate update;
};

class ProjectionTest : public ::testing::TestWithParam<Case> {};

TEST_P(ProjectionTest, EveryLazyUpdateCarriesExactlyWhatItsReceiverNeeds) {
  const Case& c = GetParam();
  SystemConfig config = harness::PaperConfig(c.protocol);
  config.runtime = c.runtime;
  config.seed = 3;
  config.workload.txns_per_thread =
      c.runtime == runtime::RuntimeKind::kSim ? 40 : 10;
  if (c.protocol == Protocol::kDagWt || c.protocol == Protocol::kDagT) {
    config.workload.backedge_prob = 0.0;  // DAG protocols need a DAG.
  }
  config.enable_trace = true;  // The history holds the origins' writes.
  auto created = System::Create(config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  System& sys = **created;

  // Replaces the trace's message observer; the history is recorded
  // separately.
  std::mutex mu;
  std::vector<Posted> posted;
  sys.network().SetObserver(
      [&](const ProtocolNetwork::Envelope& env, bool delivered) {
        const auto* u = std::get_if<SecondaryUpdate>(&env.payload);
        if (delivered || u == nullptr || u->is_dummy || u->is_special) {
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        posted.push_back({env.dst, *u});
      });
  RunMetrics metrics = sys.Run();
  ASSERT_FALSE(metrics.timed_out);
  ASSERT_FALSE(posted.empty());

  // Each committed origin's writes, from its primary record.
  std::map<GlobalTxnId, std::map<ItemId, Value>> origin_writes;
  for (const HistoryRecorder::Record& r : sys.history().records()) {
    if (r.snapshot || r.site != r.origin.origin_site) continue;
    origin_writes[r.origin] =
        std::map<ItemId, Value>(r.writes_final.begin(), r.writes_final.end());
  }

  const graph::Placement& placement = sys.routing().placement();
  const bool tree_scope =
      c.protocol == Protocol::kDagWt || c.protocol == Protocol::kBackEdge;
  auto needs = [&](SiteId dst, ItemId item) {
    for (SiteId s : placement.replicas[item]) {
      if (s == dst) return true;
      if (tree_scope && sys.routing().tree()->IsAncestor(dst, s)) return true;
    }
    return false;
  };

  // Projections keep the origin's write order, so no two updates of one
  // origin may order a pair of items differently.
  std::map<GlobalTxnId, std::set<std::pair<ItemId, ItemId>>> before;
  size_t strict_subsets = 0;
  for (const Posted& p : posted) {
    const SecondaryUpdate& u = p.update;
    SCOPED_TRACE("origin " + std::to_string(u.origin.origin_site) + "." +
                 std::to_string(u.origin.seq) + " -> site " +
                 std::to_string(p.dst));
    EXPECT_FALSE(u.writes.empty());
    EXPECT_EQ(u.origin_site, u.origin.origin_site);
    auto it = origin_writes.find(u.origin);
    ASSERT_NE(it, origin_writes.end()) << "update of an uncommitted origin";
    std::map<ItemId, Value> expected;
    for (const auto& [item, value] : it->second) {
      if (needs(p.dst, item)) expected.emplace(item, value);
    }
    std::map<ItemId, Value> carried;
    for (const WriteRecord& w : u.writes) {
      EXPECT_TRUE(carried.emplace(w.item, w.value).second)
          << "item " << w.item << " carried twice";
    }
    EXPECT_EQ(carried, expected);
    if (carried.size() < it->second.size()) ++strict_subsets;
    std::set<std::pair<ItemId, ItemId>>& order = before[u.origin];
    for (size_t i = 0; i < u.writes.size(); ++i) {
      for (size_t j = i + 1; j < u.writes.size(); ++j) {
        EXPECT_EQ(order.count({u.writes[j].item, u.writes[i].item}), 0u)
            << "items " << u.writes[i].item << " and " << u.writes[j].item
            << " in two orders";
        order.insert({u.writes[i].item, u.writes[j].item});
      }
    }
  }
  // The run exercised real projections, not only whole write sets.
  EXPECT_GT(strict_subsets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    LazyForwards, ProjectionTest,
    ::testing::Values(
        Case{"DagWt", Protocol::kDagWt, runtime::RuntimeKind::kSim},
        Case{"DagT", Protocol::kDagT, runtime::RuntimeKind::kSim},
        Case{"BackEdge", Protocol::kBackEdge, runtime::RuntimeKind::kSim},
        Case{"NaiveLazy", Protocol::kNaiveLazy, runtime::RuntimeKind::kSim},
        Case{"DagWtThreads", Protocol::kDagWt,
             runtime::RuntimeKind::kThreads}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace lazyrep::core
