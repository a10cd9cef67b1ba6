// Dijkstra shortest paths with a caller-supplied edge weight.
//
// The Networking stage precomputes, for each A*Prune invocation, the
// latency-distance from every node to the link's destination host; that
// array (`ar[]` in the paper's Algorithm 1) is the admissibility heuristic
// used to prune paths that can no longer meet the latency constraint.
#pragma once

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace hmn::graph {

/// Result of a single-source Dijkstra run.
struct ShortestPaths {
  /// dist[v] = weight of the lightest path source->v, or +inf if
  /// unreachable.
  std::vector<double> dist;
  /// parent_edge[v] = edge by which v was settled (invalid for source and
  /// unreachable nodes).  Walking parents reconstructs a lightest path.
  std::vector<EdgeId> parent_edge;

  [[nodiscard]] bool reachable(NodeId v) const {
    return dist[v.index()] != std::numeric_limits<double>::infinity();
  }
};

/// Reusable heap storage for `dijkstra_into`.  The Networking stage runs one
/// Dijkstra per distinct destination host; a long-lived scratch keeps the
/// heap's allocation (and the ShortestPaths arrays passed alongside it) warm
/// across runs instead of reallocating per virtual link.
struct DijkstraScratch {
  std::vector<std::pair<double, NodeId>> heap;
};

/// Runs Dijkstra from `source` into caller-owned result/scratch buffers.
/// `weight(EdgeId) -> double` must be non-negative; edges may be skipped by
/// returning +infinity.  Reusing `out` and `scratch` across calls avoids the
/// per-call allocation of the returning overload below; results are
/// identical (the heap uses the same comparator and push/pop order).
template <typename WeightFn>
// hmn-lint: hot-path
void dijkstra_into(const Graph& g, NodeId source, WeightFn&& weight,
                   ShortestPaths& out, DijkstraScratch& scratch) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  out.dist.assign(g.node_count(), kInf);
  out.parent_edge.assign(g.node_count(), EdgeId::invalid());
  assert(source.index() < g.node_count());

  using Entry = std::pair<double, NodeId>;
  auto cmp = [](const Entry& a, const Entry& b) { return a.first > b.first; };
  auto& heap = scratch.heap;
  heap.clear();

  out.dist[source.index()] = 0.0;
  heap.push_back({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.front();
    std::pop_heap(heap.begin(), heap.end(), cmp);
    heap.pop_back();
    if (d > out.dist[u.index()]) continue;  // stale entry
    for (const Adjacency& adj : g.neighbors(u)) {
      const double w = weight(adj.edge);
      assert(!(w < 0.0));
      // hmn-lint: allow(float-eq, kInf is an exact pruned-edge sentinel, not a computed value)
      if (w == kInf) continue;
      const double nd = d + w;
      if (nd < out.dist[adj.neighbor.index()]) {
        out.dist[adj.neighbor.index()] = nd;
        out.parent_edge[adj.neighbor.index()] = adj.edge;
        heap.push_back({nd, adj.neighbor});
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
}

/// Runs Dijkstra from `source`.  Allocating convenience wrapper over
/// `dijkstra_into`.
template <typename WeightFn>
[[nodiscard]] ShortestPaths dijkstra(const Graph& g, NodeId source,
                                     WeightFn&& weight) {
  ShortestPaths out;
  DijkstraScratch scratch;
  dijkstra_into(g, source, weight, out, scratch);
  return out;
}

/// Reconstructs the source->target path from a Dijkstra result.  Returns an
/// empty path when target == source; precondition: target reachable.
[[nodiscard]] inline Path extract_path(const Graph& g,
                                       const ShortestPaths& sp,
                                       NodeId source, NodeId target) {
  Path rev;
  NodeId cur = target;
  while (cur != source) {
    const EdgeId e = sp.parent_edge[cur.index()];
    assert(e.valid() && "target not reachable from source");
    rev.push_back(e);
    cur = g.endpoints(e).other(cur);
  }
  return {rev.rbegin(), rev.rend()};
}

}  // namespace hmn::graph
