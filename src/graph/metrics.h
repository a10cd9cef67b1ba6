// Structural criticality of a graph: the cut vertices whose failure no
// repair can route around (examples/resilience_report).
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace hmn::graph {

/// Articulation points (cut vertices): nodes whose removal disconnects
/// their component.  For a cluster these are the *critical hosts/switches*
/// — a failure there is unrepairable for any virtual link crossing the cut
/// (see core::repair_mapping).
///
/// Implementation: the definition, directly — remove each node and count
/// components among its former neighbors.  O(n * (n + m)), which is
/// microseconds at testbed sizes; a linear-time low-link DFS would save
/// nothing measurable and cost review effort.
[[nodiscard]] inline std::vector<NodeId> articulation_points(const Graph& g) {
  const std::size_t n = g.node_count();
  std::vector<NodeId> out;
  std::vector<bool> seen(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto removed = NodeId{static_cast<NodeId::underlying_type>(v)};
    if (g.degree(removed) < 2) continue;  // leaves cannot cut
    std::fill(seen.begin(), seen.end(), false);
    seen[v] = true;
    std::size_t components = 0;
    for (const Adjacency& root : g.neighbors(removed)) {
      if (seen[root.neighbor.index()]) continue;
      ++components;
      if (components > 1) break;  // already proven a cut vertex
      std::vector<NodeId> stack{root.neighbor};
      seen[root.neighbor.index()] = true;
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (const Adjacency& adj : g.neighbors(u)) {
          if (!seen[adj.neighbor.index()]) {
            seen[adj.neighbor.index()] = true;
            stack.push_back(adj.neighbor);
          }
        }
      }
    }
    if (components > 1) out.push_back(removed);
  }
  return out;
}

}  // namespace hmn::graph
