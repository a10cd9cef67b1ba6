// Rooted forests: the unique simple path between two nodes of a graph
// without a cycle.
//
// Every fabric the paper and the benchmarks map onto except the tori is a
// tree (a switched cluster, a switch tree, the shards and induced regions
// cut from one).  On a forest the simple path between two nodes is unique,
// so a router can walk it instead of searching for it: core::LinkRouter
// replays Algorithm 1's checks along it (graph::astar_prune_on_forest).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace hmn::graph {

/// Every node's parent edge, parent, depth and component in the BFS forest
/// rooted at the lowest node id of each component.
class Forest {
 public:
  /// Builds the forest of `g` by one BFS and returns true when `g` is a
  /// forest: edges == nodes - components, so a self-loop or a parallel
  /// edge counts as a cycle.  On false the forest is left empty.  O(V + E).
  bool build(const Graph& g);

  /// Writes the edges of the unique simple path src -> dst into `out`, in
  /// path order, and returns true; returns false, with `out` cleared, when
  /// the two nodes lie in different components.  `out` does not allocate
  /// once its capacity reaches the node count.
  bool path(NodeId src, NodeId dst, Path& out) const;

 private:
  struct Node {
    EdgeId up;       // edge to the parent; invalid at a root
    NodeId parent;   // invalid at a root
    std::uint32_t depth = 0;
    std::uint32_t component = 0;
  };
  std::vector<Node> nodes_;
};

}  // namespace hmn::graph
