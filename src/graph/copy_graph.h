#ifndef LAZYREP_GRAPH_COPY_GRAPH_H_
#define LAZYREP_GRAPH_COPY_GRAPH_H_

#include <set>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace lazyrep::graph {

/// Where every item's copies live. `primary[i]` is item i's primary site;
/// `replicas[i]` are the sites holding secondary copies (never the
/// primary). This is the input both to copy-graph construction and to
/// system assembly.
struct Placement {
  int num_sites = 0;
  int num_items = 0;
  std::vector<SiteId> primary;
  std::vector<std::vector<SiteId>> replicas;

  /// True when `site` stores a copy (primary or secondary) of `item`.
  bool HasCopy(ItemId item, SiteId site) const;

  /// Items whose primary copy is at `site`. O(num_items) scan: callers
  /// that need this for every site must use PrimaryItemsBySite() instead,
  /// or setup becomes O(items × sites).
  std::vector<ItemId> PrimaryItemsAt(SiteId site) const;

  /// Items with any copy at `site`. O(num_items) scan — see PrimaryItemsAt.
  std::vector<ItemId> ItemsAt(SiteId site) const;

  /// Per-site item lists built in one pass over the placement:
  /// `ItemsBySite()[s]` equals `ItemsAt(s)` (ascending item ids) but the
  /// whole family costs O(num_items + copies) instead of
  /// O(num_items × num_sites).
  std::vector<std::vector<ItemId>> ItemsBySite() const;

  /// One-pass equivalent of PrimaryItemsAt for every site.
  std::vector<std::vector<ItemId>> PrimaryItemsBySite() const;

  /// Process-wide count of full O(num_items) placement scans (ItemsAt /
  /// PrimaryItemsAt calls). Lets tests assert that system setup uses the
  /// one-pass indices rather than re-scanning per site.
  static long FullScanCount();

  /// Total number of secondary copies in the system.
  size_t TotalReplicas() const;

  /// Validates invariants (sizes, site ranges, primary not in replicas).
  Status Validate() const;

  bool operator==(const Placement&) const = default;
};

/// A directed edge between sites.
struct Edge {
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// The copy graph of §1.1: vertices are sites; an edge s_i → s_j exists
/// iff some item has its primary copy at s_i and a secondary copy at s_j.
class CopyGraph {
 public:
  explicit CopyGraph(int num_sites);

  /// Builds the copy graph induced by a placement.
  static CopyGraph FromPlacement(const Placement& placement);

  int num_sites() const { return num_sites_; }

  /// Adds an edge (idempotent; self-loops are rejected).
  void AddEdge(SiteId from, SiteId to);

  bool HasEdge(SiteId from, SiteId to) const;

  /// Sorted out-neighbours / in-neighbours.
  const std::vector<SiteId>& Children(SiteId site) const;
  const std::vector<SiteId>& Parents(SiteId site) const;

  /// All edges, sorted.
  std::vector<Edge> Edges() const;
  size_t num_edges() const { return num_edges_; }

  bool IsDag() const;

  /// True when the graph obtained by dropping edge directions is acyclic
  /// (a forest). This is the [CRR96] characterization the paper builds
  /// on (§1.2): *indiscriminate* lazy propagation is serializable iff
  /// the undirected copy graph is acyclic — a much stronger placement
  /// requirement than the DAG the paper's protocols need.
  bool UndirectedAcyclic() const;

  /// A topological order of the sites; Unsupported when cyclic.
  Result<std::vector<SiteId>> TopologicalOrder() const;

  /// The subgraph with `removed` edges deleted.
  CopyGraph Without(const std::vector<Edge>& removed) const;

  /// Sites with no parents.
  std::vector<SiteId> Sources() const;

  /// Sites reachable from `from` (excluding `from` unless on a cycle
  /// through it).
  std::set<SiteId> ReachableFrom(SiteId from) const;

 private:
  int num_sites_;
  size_t num_edges_ = 0;
  std::vector<std::vector<SiteId>> children_;
  std::vector<std::vector<SiteId>> parents_;
};

}  // namespace lazyrep::graph

#endif  // LAZYREP_GRAPH_COPY_GRAPH_H_
