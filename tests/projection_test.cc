// Per-destination write projection (Routing::Project): every message an
// engine posts with writes carries exactly the origin's writes its
// receiver needs.
//  - A lazy update carries those replicated in the receiver's tree
//    subtree (DAG(WT), BackEdge's lazy path) or at the receiver itself
//    (DAG(T), NaiveLazy), and never none.
//  - BackEdge's eager path (§4.1): the backedge start and each special
//    hop carry those replicated on the tree path from the receiver down
//    to the origin, origin excluded, so the hop into the origin carries
//    none; its 2PC prepares carry none.
//  - Eager's prepares carry those replicated at the participant.
// A network observer records each posted message and checks that each
// carried value is its origin's own (what the wire codes in one byte);
// the run's history supplies each committed origin's writes to compare
// against.

#include <map>
#include <memory>
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

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.name;
}

/// One posted message that carries writes.
struct Posted {
  enum class Kind { kLazy, kStart, kSpecial, kPrepare };
  Kind kind;
  SiteId dst;
  GlobalTxnId origin;
  SiteId origin_site;  // kInvalidSite on a prepare.
  std::vector<WriteRecord> writes;
};

/// A finished run: every write-carrying message it posted, and each
/// committed origin's writes, from its primary record.
struct Observed {
  std::unique_ptr<System> system;
  std::mutex mu;  // Guards `posted` while the run is on.
  std::vector<Posted> posted;
  std::map<GlobalTxnId, std::map<ItemId, Value>> origin_writes;
};

void Observe(const Case& c, Observed* out) {
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
  LAZYREP_CHECK(created.ok()) << created.status().ToString();
  out->system = std::move(created).value();

  out->system->network().AddObserver(
      [out](const ProtocolNetwork::Envelope& env, bool delivered) {
        if (delivered) return;
        Posted p{Posted::Kind::kLazy, env.dst, MessageOrigin(env.payload),
                 kInvalidSite, {}};
        if (const auto* u = std::get_if<SecondaryUpdate>(&env.payload)) {
          if (u->is_dummy) return;
          p.kind = u->is_special ? Posted::Kind::kSpecial
                                 : Posted::Kind::kLazy;
          p.origin_site = u->origin_site;
          p.writes = u->writes;
        } else if (const auto* s = std::get_if<BackedgeStart>(&env.payload)) {
          p.kind = Posted::Kind::kStart;
          p.origin_site = s->origin_site;
          p.writes = s->writes;
        } else if (const auto* t = std::get_if<TpcPrepare>(&env.payload)) {
          p.kind = Posted::Kind::kPrepare;
          p.writes = t->writes;
        } else {
          return;
        }
        // The wire codes each value against its message's own txn id
        // (core/wire.h); a value outside [base, base + 256) would cost up
        // to ten bytes instead of one or two.
        const Value base = ProvenanceValue(p.origin, 0);
        for (const WriteRecord& w : p.writes) {
          EXPECT_LT(static_cast<uint64_t>(w.value) -
                        static_cast<uint64_t>(base),
                    256u)
              << "item " << w.item << " of " << p.origin.origin_site << "/"
              << p.origin.seq;
        }
        std::lock_guard<std::mutex> lock(out->mu);
        out->posted.push_back(std::move(p));
      });
  RunMetrics metrics = out->system->Run();
  LAZYREP_CHECK(!metrics.timed_out);
  for (const HistoryRecorder::Record& r : out->system->history().records()) {
    if (r.snapshot || r.site != r.origin.origin_site) continue;
    out->origin_writes[r.origin] =
        std::map<ItemId, Value>(r.writes_final.begin(), r.writes_final.end());
  }
}

/// Projections keep the origin's write order, so no two messages of one
/// origin may order a pair of items differently.
void ExpectOneOrder(const Posted& p,
                    std::set<std::pair<ItemId, ItemId>>* order) {
  for (size_t i = 0; i < p.writes.size(); ++i) {
    for (size_t j = i + 1; j < p.writes.size(); ++j) {
      EXPECT_EQ(order->count({p.writes[j].item, p.writes[i].item}), 0u)
          << "items " << p.writes[i].item << " and " << p.writes[j].item
          << " in two orders";
      order->insert({p.writes[i].item, p.writes[j].item});
    }
  }
}

/// Compares `p` with the writes of its committed origin that `needs`
/// keeps, each once, in one order (ExpectOneOrder). Returns whether `p`
/// carried a strict subset of its origin's writes.
template <typename Needs>
bool ExpectCarries(const Posted& p,
                   const std::map<ItemId, Value>& origin_writes,
                   std::set<std::pair<ItemId, ItemId>>* order, Needs needs) {
  std::map<ItemId, Value> expected;
  for (const auto& [item, value] : origin_writes) {
    if (needs(item)) expected.emplace(item, value);
  }
  std::map<ItemId, Value> carried;
  for (const WriteRecord& w : p.writes) {
    EXPECT_TRUE(carried.emplace(w.item, w.value).second)
        << "item " << w.item << " carried twice";
  }
  EXPECT_EQ(carried, expected);
  ExpectOneOrder(p, order);
  return carried.size() < origin_writes.size();
}

std::string Label(const Posted& p) {
  return "origin " + std::to_string(p.origin.origin_site) + "." +
         std::to_string(p.origin.seq) + " -> site " + std::to_string(p.dst);
}

class ProjectionTest : public ::testing::TestWithParam<Case> {};

TEST_P(ProjectionTest, EveryLazyUpdateCarriesExactlyWhatItsReceiverNeeds) {
  const Case& c = GetParam();
  Observed run;
  Observe(c, &run);
  const Routing& routing = run.system->routing();
  const bool tree_scope =
      c.protocol == Protocol::kDagWt || c.protocol == Protocol::kBackEdge;

  std::map<GlobalTxnId, std::set<std::pair<ItemId, ItemId>>> order;
  size_t lazy = 0;
  size_t strict_subsets = 0;
  for (const Posted& p : run.posted) {
    if (p.kind != Posted::Kind::kLazy) continue;
    ++lazy;
    SCOPED_TRACE(Label(p));
    EXPECT_FALSE(p.writes.empty());
    EXPECT_EQ(p.origin_site, p.origin.origin_site);
    auto it = run.origin_writes.find(p.origin);
    ASSERT_NE(it, run.origin_writes.end()) << "update of an uncommitted origin";
    strict_subsets += ExpectCarries(
        p, it->second, &order[p.origin], [&](ItemId item) {
          for (SiteId s : routing.placement().replicas[item]) {
            if (s == p.dst) return true;
            if (tree_scope && routing.tree()->IsAncestor(p.dst, s)) {
              return true;
            }
          }
          return false;
        });
  }
  ASSERT_GT(lazy, 0u);
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
    CaseName);

class EagerProjectionTest : public ::testing::TestWithParam<Case> {};

TEST_P(EagerProjectionTest, EveryEagerMessageCarriesExactlyWhatItsPathNeeds) {
  const Case& c = GetParam();
  Observed run;
  Observe(c, &run);
  const Routing& routing = run.system->routing();

  std::map<GlobalTxnId, std::set<std::pair<ItemId, ItemId>>> order;
  std::map<Posted::Kind, size_t> checked;
  size_t into_origin = 0;
  size_t strict_subsets = 0;
  for (const Posted& p : run.posted) {
    SCOPED_TRACE(Label(p));
    if (p.kind == Posted::Kind::kPrepare && c.protocol != Protocol::kEager) {
      // BackEdge's 2PC prepare only asks for the vote.
      EXPECT_TRUE(p.writes.empty());
      continue;
    }
    // Eager-path messages go out before the origin commits; only a
    // committed origin's writes are known.
    auto it = run.origin_writes.find(p.origin);
    if (it == run.origin_writes.end()) continue;
    const SiteId origin = p.origin.origin_site;
    auto on_path = [&](ItemId item) {
      const graph::Tree& tree = *routing.tree();
      for (SiteId s : routing.placement().replicas[item]) {
        if ((s == p.dst || tree.IsAncestor(p.dst, s)) &&
            tree.IsAncestor(s, origin)) {
          return true;
        }
      }
      return false;
    };
    auto at_site = [&](ItemId item) {
      return routing.HasReplica(p.dst, item);
    };
    bool strict = false;
    switch (p.kind) {
      case Posted::Kind::kLazy:
        // Checked by ProjectionTest; here only for the shared order.
        ExpectOneOrder(p, &order[p.origin]);
        continue;
      case Posted::Kind::kStart:
        strict = ExpectCarries(p, it->second, &order[p.origin], on_path);
        break;
      case Posted::Kind::kSpecial:
        if (p.dst == origin) {
          EXPECT_TRUE(p.writes.empty()) << "the hop into the origin";
          ++into_origin;
        }
        strict = ExpectCarries(p, it->second, &order[p.origin], on_path);
        break;
      case Posted::Kind::kPrepare:
        EXPECT_FALSE(p.writes.empty());
        strict = ExpectCarries(p, it->second, &order[p.origin], at_site);
        break;
    }
    ++checked[p.kind];
    strict_subsets += strict && !p.writes.empty() ? 1 : 0;
  }
  if (c.protocol == Protocol::kBackEdge) {
    EXPECT_GT(checked[Posted::Kind::kStart], 0u);
    EXPECT_GT(checked[Posted::Kind::kSpecial], 0u);
    EXPECT_GT(into_origin, 0u);
  } else {
    EXPECT_GT(checked[Posted::Kind::kPrepare], 0u);
  }
  // The run exercised non-empty strict projections on the eager path.
  EXPECT_GT(strict_subsets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    EagerPaths, EagerProjectionTest,
    ::testing::Values(
        Case{"BackEdge", Protocol::kBackEdge, runtime::RuntimeKind::kSim},
        Case{"Eager", Protocol::kEager, runtime::RuntimeKind::kSim},
        Case{"BackEdgeThreads", Protocol::kBackEdge,
             runtime::RuntimeKind::kThreads}),
    CaseName);

}  // namespace
}  // namespace lazyrep::core
