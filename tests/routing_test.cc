// Tests for src/core/routing.*: protocol-specific routing state built
// from placements.

#include <gtest/gtest.h>

#include "core/routing.h"

namespace lazyrep::core {
namespace {

// Example 1.1: item 0 primary at site 0, replicas {1,2}; item 1 primary
// at site 1, replica {2}.
graph::Placement Example11() {
  graph::Placement p;
  p.num_sites = 3;
  p.num_items = 2;
  p.primary = {0, 1};
  p.replicas = {{1, 2}, {2}};
  return p;
}

// Example 4.1: two sites, item 0 primary at 0 replicated at 1; item 1
// primary at 1 replicated at 0 — a two-cycle.
graph::Placement Example41() {
  graph::Placement p;
  p.num_sites = 2;
  p.num_items = 2;
  p.primary = {0, 1};
  p.replicas = {{1}, {0}};
  return p;
}

std::vector<WriteRecord> Writes(std::initializer_list<ItemId> items) {
  std::vector<WriteRecord> out;
  for (ItemId i : items) out.push_back({i, 0});
  return out;
}

TEST(RoutingTest, DagProtocolRejectsCyclicGraph) {
  EngineOptions options;
  EXPECT_FALSE(Routing::Build(Example41(), Protocol::kDagWt, options).ok());
  EXPECT_FALSE(Routing::Build(Example41(), Protocol::kDagT, options).ok());
}

TEST(RoutingTest, BackEdgeAcceptsCyclicGraph) {
  EngineOptions options;
  auto routing = Routing::Build(Example41(), Protocol::kBackEdge, options);
  ASSERT_TRUE(routing.ok());
  EXPECT_EQ((*routing)->backedges().size(), 1u);
  EXPECT_EQ((*routing)->backedges()[0], (graph::Edge{1, 0}));
  EXPECT_TRUE((*routing)->gdag().IsDag());
}

TEST(RoutingTest, TreeBuiltForTreeProtocols) {
  EngineOptions options;
  auto wt = Routing::Build(Example11(), Protocol::kDagWt, options);
  ASSERT_TRUE(wt.ok());
  ASSERT_TRUE((*wt)->tree().has_value());
  // Chain 0 - 1 - 2 (§2's discussion of Example 1.1).
  EXPECT_EQ((*wt)->tree()->Parent(1), 0);
  EXPECT_EQ((*wt)->tree()->Parent(2), 1);
  auto dagt = Routing::Build(Example11(), Protocol::kDagT, options);
  ASSERT_TRUE(dagt.ok());
  EXPECT_FALSE((*dagt)->tree().has_value());
}

TEST(RoutingTest, ReplicaSitesAndCounts) {
  EngineOptions options;
  auto r = Routing::Build(Example11(), Protocol::kDagWt, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->ReplicaTargets(Writes({0})), (std::vector<SiteId>{1, 2}));
  EXPECT_EQ((*r)->ReplicaTargets(Writes({0, 1})),  // Union.
            (std::vector<SiteId>{1, 2}));
  EXPECT_EQ((*r)->ReplicaTargets(Writes({1})), (std::vector<SiteId>{2}));
  EXPECT_TRUE((*r)->HasReplica(2, 0));
  EXPECT_FALSE((*r)->HasReplica(0, 0));  // Primary, not replica.
}

// The items of a projection's result: `writes` itself when every write
// is kept, `kept` for a strict subset, nothing for an empty one.
std::vector<ItemId> Projected(const Routing& r, SiteId dest,
                              Routing::Scope scope,
                              const std::vector<WriteRecord>& writes) {
  std::vector<WriteRecord> kept;
  const size_t n = r.Project(dest, scope, writes, &kept);
  std::vector<ItemId> out;
  if (n == 0) return out;
  for (const WriteRecord& w : n == writes.size() ? writes : kept) {
    out.push_back(w.item);
  }
  EXPECT_EQ(out.size(), n);
  return out;
}

TEST(RoutingTest, SubtreeProjectionKeepsWritesReplicatedBelow) {
  EngineOptions options;
  auto r = Routing::Build(Example11(), Protocol::kDagWt, options);
  ASSERT_TRUE(r.ok());
  const Routing& routing = **r;
  constexpr Routing::Scope kSubtree = Routing::Scope::kSubtree;
  // Chain 0-1-2. Item 0 has replicas at 1 and 2, both in 1's subtree;
  // item 1 has its one replica at 2.
  EXPECT_EQ(Projected(routing, 1, kSubtree, Writes({0})),
            (std::vector<ItemId>{0}));
  EXPECT_EQ(Projected(routing, 2, kSubtree, Writes({0, 1})),
            (std::vector<ItemId>{0, 1}));
  // Site 0 (the root) holds no replica; its subtree holds both items.
  EXPECT_EQ(Projected(routing, 0, kSubtree, Writes({1, 0})),
            (std::vector<ItemId>{1, 0}));
  // A full projection leaves `kept` alone: the caller posts `writes`.
  std::vector<WriteRecord> kept = Writes({7});
  EXPECT_EQ(routing.Project(1, kSubtree, Writes({1, 0}), &kept), 2u);
  EXPECT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].item, 7);
}

TEST(RoutingTest, SiteProjectionKeepsWritesReplicatedAtTheSite) {
  // Site 0 writes items 0-3: item 0 replicated at 1 and 3, item 1 at 2,
  // item 2 at 1 and 2, item 3 nowhere. Items 4 (1 -> 2) and 5 (2 -> 3)
  // make the copy graph's only topological order, and so the tree, the
  // chain 0-1-2-3.
  graph::Placement p;
  p.num_sites = 4;
  p.num_items = 6;
  p.primary = {0, 0, 0, 0, 1, 2};
  p.replicas = {{1, 3}, {2}, {1, 2}, {}, {2}, {3}};
  EngineOptions options;
  for (Protocol protocol : {Protocol::kDagT, Protocol::kDagWt}) {
    auto r = Routing::Build(p, protocol, options);
    ASSERT_TRUE(r.ok());
    const Routing& routing = **r;
    constexpr Routing::Scope kSite = Routing::Scope::kSite;
    const std::vector<WriteRecord> writes = Writes({3, 2, 1, 0});
    // Strict subsets keep the writes' own order, not item order.
    EXPECT_EQ(Projected(routing, 1, kSite, writes),
              (std::vector<ItemId>{2, 0}));
    EXPECT_EQ(Projected(routing, 2, kSite, writes),
              (std::vector<ItemId>{2, 1}));
    EXPECT_EQ(Projected(routing, 3, kSite, writes),
              (std::vector<ItemId>{0}));
    EXPECT_TRUE(Projected(routing, 0, kSite, writes).empty());
    EXPECT_TRUE(Projected(routing, 3, kSite, Writes({1, 2, 3})).empty());
  }
  // The subtree scope of the same chain widens each site's set by its
  // descendants'.
  auto wt = Routing::Build(p, Protocol::kDagWt, options);
  ASSERT_TRUE(wt.ok());
  ASSERT_EQ((*wt)->tree()->Parent(3), 2);
  ASSERT_EQ((*wt)->tree()->Parent(2), 1);
  EXPECT_EQ(Projected(**wt, 2, Routing::Scope::kSubtree, Writes({3, 2, 1, 0})),
            (std::vector<ItemId>{2, 1, 0}));
  EXPECT_EQ(Projected(**wt, 1, Routing::Scope::kSubtree, Writes({3, 2, 1, 0})),
            (std::vector<ItemId>{2, 1, 0}));
}

TEST(RoutingTest, ItemBitmapsSpanWordBoundaries) {
  // 130 items over two sites, every third one replicated at site 1:
  // the bitmap rows are three words long.
  graph::Placement p;
  p.num_sites = 2;
  p.num_items = 130;
  p.primary.assign(130, 0);
  p.replicas.resize(130);
  std::vector<WriteRecord> writes;
  std::vector<ItemId> expected;
  for (ItemId i = 0; i < 130; ++i) {
    if (i % 3 == 0) {
      p.replicas[i] = {1};
      expected.push_back(i);
    }
    writes.push_back({i, 0});
  }
  EngineOptions options;
  auto r = Routing::Build(p, Protocol::kDagWt, options);
  ASSERT_TRUE(r.ok());
  for (ItemId i = 0; i < 130; ++i) {
    EXPECT_EQ((*r)->HasReplica(1, i), i % 3 == 0) << i;
    EXPECT_FALSE((*r)->HasReplica(0, i)) << i;
  }
  EXPECT_EQ(Projected(**r, 1, Routing::Scope::kSite, writes), expected);
  EXPECT_EQ(Projected(**r, 1, Routing::Scope::kSubtree, writes), expected);
  EXPECT_EQ(Projected(**r, 0, Routing::Scope::kSubtree, writes), expected);
}

TEST(RoutingTest, BackedgeTargetsAreTreeAncestors) {
  EngineOptions options;
  auto r = Routing::Build(Example41(), Protocol::kBackEdge, options);
  ASSERT_TRUE(r.ok());
  // Site 1 updates item 1, replicated at site 0 = its tree ancestor.
  EXPECT_EQ((*r)->BackedgeTargets(1, Writes({1})),
            (std::vector<SiteId>{0}));
  // Site 0 updates item 0, replicated at 1 = descendant: no backedge.
  EXPECT_TRUE((*r)->BackedgeTargets(0, Writes({0})).empty());
}

TEST(RoutingTest, BackedgeTargetsSortedFarthestFirst) {
  // Chain 0-1-2-3; site 3 writes items replicated at 0 and 2.
  graph::Placement p;
  p.num_sites = 4;
  p.num_items = 3;
  p.primary = {3, 3, 0};
  p.replicas = {{0, 2}, {1, 2}, {1}};
  EngineOptions options;
  auto r = Routing::Build(p, Protocol::kBackEdge, options);
  ASSERT_TRUE(r.ok());
  auto targets = (*r)->BackedgeTargets(3, Writes({0, 1}));
  ASSERT_EQ(targets.size(), 3u);
  EXPECT_EQ(targets[0], 0);  // Farthest (nearest the root).
  EXPECT_EQ(targets[1], 1);
  EXPECT_EQ(targets[2], 2);
}

TEST(RoutingTest, TopoRankConsistentWithDag) {
  EngineOptions options;
  auto r = Routing::Build(Example11(), Protocol::kDagT, options);
  ASSERT_TRUE(r.ok());
  for (const graph::Edge& e : (*r)->copy_graph().Edges()) {
    EXPECT_LT((*r)->TopoRank(e.from), (*r)->TopoRank(e.to));
  }
}

TEST(RoutingTest, BackedgeMethodsAllYieldValidSets) {
  graph::Placement p;
  p.num_sites = 4;
  p.num_items = 4;
  p.primary = {0, 1, 2, 3};
  p.replicas = {{1, 3}, {2}, {0, 3}, {1}};  // Cycles present.
  for (BackedgeMethod method : {BackedgeMethod::kSiteOrder,
                                BackedgeMethod::kDfs,
                                BackedgeMethod::kGreedy}) {
    EngineOptions options;
    options.backedge_method = method;
    auto r = Routing::Build(p, Protocol::kBackEdge, options);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE((*r)->gdag().IsDag());
    ASSERT_TRUE((*r)->tree().has_value());
    // Every copy edge tree-comparable: replicas reachable eagerly or
    // lazily.
    for (const graph::Edge& e : (*r)->copy_graph().Edges()) {
      EXPECT_TRUE((*r)->tree()->IsAncestor(e.from, e.to) ||
                  (*r)->tree()->IsAncestor(e.to, e.from));
    }
  }
}

}  // namespace
}  // namespace lazyrep::core
