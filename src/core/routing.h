#ifndef LAZYREP_CORE_ROUTING_H_
#define LAZYREP_CORE_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/result.h"
#include "core/config.h"
#include "core/messages.h"
#include "graph/copy_graph.h"
#include "graph/feedback_arc_set.h"
#include "graph/tree.h"

namespace lazyrep::core {

/// Per-edge update-propagation frequency weights (§4.2): the number of
/// items inducing each copy-graph edge. With writes uniform over a
/// site's primaries this is proportional to the expected propagation
/// traffic along the edge.
std::map<graph::Edge, double> EdgeTrafficWeights(
    const graph::Placement& placement);

/// Immutable, precomputed routing state shared by every site's engine:
/// the copy graph, the backedge set and resulting DAG, the propagation
/// tree, and per-site item bitmaps behind the write projection (§2:
/// forward a subtransaction to a child only when the child's subtree
/// holds a replica of an updated item — and then only those writes).
class Routing {
 public:
  /// Which replicas a destination's projection covers.
  enum class Scope {
    /// Replicas anywhere in the destination's tree subtree: DAG(WT) and
    /// BackEdge's lazy path, where the destination relays on down.
    kSubtree,
    /// Replicas at the destination itself: DAG(T), NaiveLazy and Eager,
    /// which post to every replica site directly.
    kSite,
    /// Replicas on the tree path from the destination down to the
    /// writes' origin (their primary site), origin excluded: BackEdge's
    /// eager path (§4.1), where the destination relays the special on
    /// toward the origin. The destination must lie on the tree path from
    /// the root to the origin, the origin included (which needs none).
    kPath,
  };

  /// Builds routing for `protocol`. Fails with Unsupported when a DAG
  /// protocol is configured on a cyclic copy graph.
  static Result<std::shared_ptr<const Routing>> Build(
      const graph::Placement& placement, Protocol protocol,
      const EngineOptions& options);

  const graph::Placement& placement() const { return placement_; }
  const graph::CopyGraph& copy_graph() const { return copy_graph_; }
  /// Copy graph minus backedges (equals the copy graph for DAG inputs).
  const graph::CopyGraph& gdag() const { return gdag_; }
  const std::vector<graph::Edge>& backedges() const { return backedges_; }

  /// Total traffic weight (per EdgeTrafficWeights) of the chosen
  /// backedge set — the §4.2 minimization objective.
  double BackedgeTrafficWeight() const;
  /// Present for tree-based protocols (DAG(WT), BackEdge) and for DAG(T)
  /// ordering checks; absent for protocols that do not need one.
  const std::optional<graph::Tree>& tree() const { return tree_; }

  /// The distinct secondary sites holding a replica of any written item,
  /// ascending — the sites a secondary application is expected at.
  std::vector<SiteId> ReplicaTargets(
      const std::vector<WriteRecord>& writes) const;

  /// Per-destination write projection: how many of `writes` `dest`
  /// needs under `scope` — those with a replica in its subtree, at it or
  /// on its path to the origin.
  /// Zero means a lazy `dest` gets no message (a path hop goes out
  /// empty) and `writes.size()` that it gets `writes` as they are; only
  /// for a strict, non-empty subset does
  /// `*kept` receive the needed writes, in their order in `writes`.
  size_t Project(SiteId dest, Scope scope,
                 const std::vector<WriteRecord>& writes,
                 std::vector<WriteRecord>* kept) const;

  /// BackEdge: replica targets of `writes` that are tree ancestors of
  /// `site` — exactly the backedge subtransaction sites, sorted farthest
  /// (nearest the root) first (§4.1).
  std::vector<SiteId> BackedgeTargets(
      SiteId site, const std::vector<WriteRecord>& writes) const;

  /// True when `site` holds a replica (secondary copy) of `item`.
  bool HasReplica(SiteId site, ItemId item) const {
    return Test(&site_items_[words_per_site_ * site], item);
  }

  /// Position of `site` in a fixed topological order of `gdag()` — the
  /// total site order `s_1 < s_2 < ... < s_m` that DAG(T) timestamps are
  /// built over (§3.1). Ancestors always have smaller rank.
  int TopoRank(SiteId site) const { return topo_rank_[site]; }

  int num_sites() const { return placement_.num_sites; }

 private:
  Routing() : copy_graph_(1), gdag_(1) {}

  /// Bit `item` of a bitmap row.
  static bool Test(const uint64_t* bits, ItemId item) {
    return ((bits[item >> 6] >> (item & 63)) & 1) != 0;
  }

  graph::Placement placement_;
  graph::CopyGraph copy_graph_;
  graph::CopyGraph gdag_;
  std::vector<graph::Edge> backedges_;
  std::optional<graph::Tree> tree_;
  std::vector<std::set<SiteId>> replica_sites_;       // item -> sites
  // Item bitmaps, one row of `words_per_site_` words per site: bit `i`
  // of row `s` is set when item `i` has a replica at `s` (site_items_)
  // or in `s`'s tree subtree (subtree_items_, tree protocols only).
  size_t words_per_site_ = 0;
  std::vector<uint64_t> site_items_;
  std::vector<uint64_t> subtree_items_;
  // item -> tree depth of its deepest replica that is a tree ancestor of
  // its primary, -1 when none (tree protocols only). A write lies on the
  // eager path below `dest` exactly when this reaches `dest`'s depth.
  std::vector<int> path_depth_;
  std::vector<int> topo_rank_;                        // site -> rank

};

}  // namespace lazyrep::core

#endif  // LAZYREP_CORE_ROUTING_H_
