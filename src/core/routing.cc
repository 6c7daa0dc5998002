#include "core/routing.h"

#include <algorithm>

namespace lazyrep::core {

std::map<graph::Edge, double> EdgeTrafficWeights(
    const graph::Placement& placement) {
  std::map<graph::Edge, double> weights;
  for (ItemId i = 0; i < placement.num_items; ++i) {
    for (SiteId s : placement.replicas[i]) {
      weights[{placement.primary[i], s}] += 1.0;
    }
  }
  return weights;
}

double Routing::BackedgeTrafficWeight() const {
  std::map<graph::Edge, double> weights = EdgeTrafficWeights(placement_);
  return graph::EdgeSetWeight(backedges_, &weights);
}

Result<std::shared_ptr<const Routing>> Routing::Build(
    const graph::Placement& placement, Protocol protocol,
    const EngineOptions& options) {
  LAZYREP_RETURN_IF_ERROR(placement.Validate());
  auto routing = std::shared_ptr<Routing>(new Routing());
  routing->placement_ = placement;
  routing->copy_graph_ = graph::CopyGraph::FromPlacement(placement);

  // Backedge set: empty for DAG protocols (which require a DAG), chosen
  // by the configured method for BackEdge, irrelevant for the rest.
  switch (protocol) {
    case Protocol::kDagWt:
    case Protocol::kDagT:
      if (!routing->copy_graph_.IsDag()) {
        return Status::Unsupported(
            "DAG protocols require an acyclic copy graph (use BackEdge)");
      }
      routing->backedges_.clear();
      break;
    case Protocol::kBackEdge:
      switch (options.backedge_method) {
        case BackedgeMethod::kSiteOrder: {
          std::vector<SiteId> natural(placement.num_sites);
          for (SiteId s = 0; s < placement.num_sites; ++s) natural[s] = s;
          routing->backedges_ =
              graph::OrderBackedges(routing->copy_graph_, natural);
          break;
        }
        case BackedgeMethod::kDfs:
          routing->backedges_ = graph::DfsBackedges(routing->copy_graph_);
          break;
        case BackedgeMethod::kGreedy:
          routing->backedges_ =
              graph::GreedyFeedbackArcSet(routing->copy_graph_);
          break;
        case BackedgeMethod::kWeightedGreedy: {
          std::map<graph::Edge, double> weights =
              EdgeTrafficWeights(placement);
          routing->backedges_ = graph::LocalSearchFeedbackArcSet(
              routing->copy_graph_, &weights);
          break;
        }
      }
      break;
    case Protocol::kPsl:
    case Protocol::kNaiveLazy:
    case Protocol::kEager:
      routing->backedges_.clear();
      break;
  }
  routing->gdag_ = routing->copy_graph_.Without(routing->backedges_);

  // Propagation tree over the DAG part for the tree-based protocols.
  if (protocol == Protocol::kDagWt || protocol == Protocol::kBackEdge) {
    Result<graph::Tree> tree = options.tree == TreeKind::kChain
                                   ? graph::BuildChainTree(routing->gdag_)
                                   : graph::BuildGreedyTree(routing->gdag_);
    LAZYREP_RETURN_IF_ERROR(tree.status());
    routing->tree_.emplace(std::move(tree).value());
    if (protocol == Protocol::kBackEdge) {
      // Every replica site must be tree-comparable with its primary:
      // descendants get lazy updates, ancestors the eager backedge path.
      // A branching tree with a non-minimal backedge set can leave a
      // replica in a sibling subtree; the chain (a total order) cannot.
      bool comparable = true;
      for (const graph::Edge& e : routing->copy_graph_.Edges()) {
        if (!routing->tree_->IsAncestor(e.from, e.to) &&
            !routing->tree_->IsAncestor(e.to, e.from)) {
          comparable = false;
          break;
        }
      }
      if (!comparable) {
        LAZYREP_ASSIGN_OR_RETURN(graph::Tree chain,
                                 graph::BuildChainTree(routing->gdag_));
        routing->tree_.emplace(std::move(chain));
      }
    }
  }

  // Total site order for DAG(T) timestamps: a topological order of the
  // DAG part. Protocols that never consult ranks (PSL, NaiveLazy, Eager)
  // may run on cyclic graphs; give them identity ranks.
  routing->topo_rank_.resize(placement.num_sites);
  for (SiteId s = 0; s < placement.num_sites; ++s) {
    routing->topo_rank_[s] = s;
  }
  if (Result<std::vector<SiteId>> order =
          routing->gdag_.TopologicalOrder();
      order.ok()) {
    for (size_t i = 0; i < order->size(); ++i) {
      routing->topo_rank_[(*order)[i]] = static_cast<int>(i);
    }
  } else if (protocol == Protocol::kDagT) {
    return order.status();
  }

  // Replica-site index.
  routing->replica_sites_.resize(placement.num_items);
  for (ItemId i = 0; i < placement.num_items; ++i) {
    routing->replica_sites_[i].insert(placement.replicas[i].begin(),
                                      placement.replicas[i].end());
  }

  // Item bitmaps, one row per site. A site's subtree row is its own row
  // OR its children's subtree rows; deepest sites first makes that one
  // pass of `words_per_site_` words per tree edge.
  const size_t words = (static_cast<size_t>(placement.num_items) + 63) / 64;
  routing->words_per_site_ = words;
  routing->site_items_.assign(words * placement.num_sites, 0);
  for (ItemId i = 0; i < placement.num_items; ++i) {
    for (SiteId s : placement.replicas[i]) {
      routing->site_items_[words * s + (i >> 6)] |= uint64_t{1} << (i & 63);
    }
  }
  if (routing->tree_.has_value()) {
    const graph::Tree& tree = *routing->tree_;
    routing->subtree_items_ = routing->site_items_;
    std::vector<SiteId> by_depth(placement.num_sites);
    for (SiteId s = 0; s < placement.num_sites; ++s) by_depth[s] = s;
    std::sort(by_depth.begin(), by_depth.end(), [&](SiteId a, SiteId b) {
      return tree.Depth(a) > tree.Depth(b);
    });
    for (SiteId s : by_depth) {
      uint64_t* mine = &routing->subtree_items_[words * s];
      for (SiteId c : tree.Children(s)) {
        const uint64_t* child = &routing->subtree_items_[words * c];
        for (size_t w = 0; w < words; ++w) mine[w] |= child[w];
      }
    }
    routing->path_depth_.assign(placement.num_items, -1);
    for (ItemId i = 0; i < placement.num_items; ++i) {
      for (SiteId s : placement.replicas[i]) {
        if (tree.IsAncestor(s, placement.primary[i])) {
          routing->path_depth_[i] =
              std::max(routing->path_depth_[i], tree.Depth(s));
        }
      }
    }
  }
  return std::shared_ptr<const Routing>(routing);
}

std::vector<SiteId> Routing::ReplicaTargets(
    const std::vector<WriteRecord>& writes) const {
  std::vector<SiteId> targets;
  for (const WriteRecord& w : writes) {
    const auto& sites = replica_sites_[w.item];
    targets.insert(targets.end(), sites.begin(), sites.end());
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  return targets;
}

namespace {

/// Project's 0 / all / subset convention over a per-item predicate.
template <typename Needs>
size_t Keep(const std::vector<WriteRecord>& writes,
            std::vector<WriteRecord>* kept, Needs needs) {
  size_t needed = 0;
  for (const WriteRecord& w : writes) needed += needs(w.item) ? 1 : 0;
  if (needed == 0 || needed == writes.size()) return needed;
  kept->clear();
  kept->reserve(needed);
  for (const WriteRecord& w : writes) {
    if (needs(w.item)) kept->push_back(w);
  }
  return needed;
}

}  // namespace

size_t Routing::Project(SiteId dest, Scope scope,
                        const std::vector<WriteRecord>& writes,
                        std::vector<WriteRecord>* kept) const {
  LAZYREP_CHECK(scope == Scope::kSite || tree_.has_value())
      << "a subtree or path projection needs a tree";
  if (scope == Scope::kPath) {
    const int depth = tree_->Depth(dest);
    return Keep(writes, kept,
                [&](ItemId item) { return path_depth_[item] >= depth; });
  }
  const uint64_t* bits =
      (scope == Scope::kSite ? site_items_ : subtree_items_).data() +
      words_per_site_ * static_cast<size_t>(dest);
  return Keep(writes, kept, [bits](ItemId item) { return Test(bits, item); });
}

std::vector<SiteId> Routing::BackedgeTargets(
    SiteId site, const std::vector<WriteRecord>& writes) const {
  LAZYREP_CHECK(tree_.has_value());
  std::set<SiteId> targets;
  for (const WriteRecord& w : writes) {
    for (SiteId s : replica_sites_[w.item]) {
      if (tree_->IsAncestor(s, site)) targets.insert(s);
    }
  }
  std::vector<SiteId> out(targets.begin(), targets.end());
  // Farthest from `site` = smallest tree depth first.
  std::sort(out.begin(), out.end(), [this](SiteId a, SiteId b) {
    if (tree_->Depth(a) != tree_->Depth(b)) {
      return tree_->Depth(a) < tree_->Depth(b);
    }
    return a < b;
  });
  return out;
}

}  // namespace lazyrep::core
