#ifndef LAZYREP_GRAPH_TOPOLOGY_H_
#define LAZYREP_GRAPH_TOPOLOGY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/types.h"
#include "graph/copy_graph.h"

namespace lazyrep::graph {

/// Generated copy-graph topology families for scale-out experiments
/// (docs/SCALE.md). The paper evaluates m = 9 with the §5.2 randomized
/// placement; these build structured 100+ site skeletons — the deep
/// chains, d-ary trees, wide fans, and backedge-controlled random graphs
/// — with per-item *sharded* placements so each site holds only a
/// keyspace fraction (partial replication à la Sutra & Shapiro).
enum class TopologyKind {
  kChain,   // 0 -> 1 -> ... -> N-1 (depth N-1)
  kTree,    // d-ary heap-shaped tree rooted at 0
  kFan,     // hub 0 -> every other site (depth 1, out-degree N-1)
  kRandom,  // random connected DAG + density-controlled backedges
};

/// A parsed `--topology=` spec.
struct TopologySpec {
  TopologyKind kind = TopologyKind::kChain;
  int num_sites = 0;
  /// kTree: children per node (>= 1).
  int fanout = 2;
  /// kRandom: per-site probability of one cycle-creating backedge.
  /// 0 keeps the graph a DAG (runnable under DAG(WT)/DAG(T)); > 0
  /// requires BackEdge.
  double backedge_density = 0.0;

  /// Canonical spec string ("chain:128", "tree:128,4", "rand:128,0.10").
  std::string ToString() const;
};

/// Parses "chain:N" | "tree:N,d" | "fan:N" | "rand:N,density".
Result<TopologySpec> ParseTopologySpec(const std::string& text);

/// The skeleton site graph of a spec. Deterministic given (spec, seed);
/// the seed only matters for kRandom. Every site is reachable from site 0
/// except backedge targets, which only add cycles.
CopyGraph BuildTopologyGraph(const TopologySpec& spec, uint64_t seed);

/// A sharded partial-replication placement over the spec's skeleton:
/// primaries round-robin over sites (so every site owns a keyspace
/// shard), and each item takes `replication_factor - 1` secondary copies
/// on the first sites BFS reaches along the primary's skeleton
/// out-edges, rotated per item for balance. Items whose primary reaches
/// fewer sites keep fewer copies (a fan leaf replicates nowhere), so the
/// induced copy graph never leaves the skeleton. Requires
/// num_items >= spec.num_sites so the WorkloadSpec every-site-readable
/// invariant holds.
Result<Placement> GenerateTopologyPlacement(const TopologySpec& spec,
                                            int num_items,
                                            int replication_factor,
                                            uint64_t seed);

}  // namespace lazyrep::graph

#endif  // LAZYREP_GRAPH_TOPOLOGY_H_
