#include "graph/forest.h"

#include <limits>

namespace hmn::graph {

bool Forest::build(const Graph& g) {
  constexpr std::uint32_t kUnseen = std::numeric_limits<std::uint32_t>::max();
  const std::size_t n = g.node_count();
  nodes_.assign(n, Node{EdgeId::invalid(), NodeId::invalid(), 0, kUnseen});
  // One BFS queue for every component: each node enters it once.
  std::vector<NodeId> queue;
  queue.reserve(n);
  std::size_t head = 0;
  std::uint32_t components = 0;
  for (std::size_t r = 0; r < n; ++r) {
    if (nodes_[r].component != kUnseen) continue;
    nodes_[r].component = components;
    queue.push_back(NodeId{static_cast<NodeId::underlying_type>(r)});
    for (; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const std::uint32_t depth = nodes_[u.index()].depth + 1;
      for (const Adjacency& adj : g.neighbors(u)) {
        Node& v = nodes_[adj.neighbor.index()];
        if (v.component != kUnseen) continue;
        v = Node{adj.edge, u, depth, components};
        queue.push_back(adj.neighbor);
      }
    }
    ++components;
  }
  if (g.edge_count() + components != n) {
    nodes_.clear();
    nodes_.shrink_to_fit();
    return false;
  }
  return true;
}

// hmn-lint: hot-path
bool Forest::path(NodeId src, NodeId dst, Path& out) const {
  out.clear();
  const Node* const f = nodes_.data();
  if (f[src.index()].component != f[dst.index()].component) return false;
  // The lowest common ancestor: lift the deeper end, then both together.
  NodeId a = src;
  NodeId b = dst;
  while (f[a.index()].depth > f[b.index()].depth) a = f[a.index()].parent;
  while (f[b.index()].depth > f[a.index()].depth) b = f[b.index()].parent;
  while (a != b) {
    a = f[a.index()].parent;
    b = f[b.index()].parent;
  }
  const std::uint32_t top = f[a.index()].depth;
  out.resize((f[src.index()].depth - top) + (f[dst.index()].depth - top));
  // src's side in climbing order, then dst's side from the end backwards.
  std::size_t i = 0;
  for (NodeId v = src; v != a; v = f[v.index()].parent) {
    out[i++] = f[v.index()].up;
  }
  i = out.size();
  for (NodeId v = dst; v != a; v = f[v.index()].parent) {
    out[--i] = f[v.index()].up;
  }
  return true;
}

}  // namespace hmn::graph
