// The paper's modified 1-constrained A*Prune (Algorithm 1), derived from
// A*Prune (Liu & Ramakrishnan, INFOCOM 2001).
//
// The original A*Prune enumerates the K shortest paths subject to multiple
// additive constraints, expanding partial paths in best-first order and
// pruning those whose optimistic completion (current accumulation + a
// precomputed Dijkstra lower bound to the destination) violates any
// constraint.  The paper modifies it for the Networking stage:
//
//   * the priority is the greatest *bottleneck bandwidth* of the partial
//     path (a max-min objective rather than an additive one);
//   * one additive constraint remains: accumulated latency, with the
//     Dijkstra latency-to-destination array `ar[]` as admissible heuristic;
//   * edges whose residual bandwidth is below the virtual link's demand are
//     pruned outright.
//
// `astar_prune_bottleneck` is that modified algorithm, faithful to the
// paper's pseudocode.  `astar_prune_on_forest` gives its answer, bit for
// bit, on a graph without a cycle by walking the unique path instead of
// searching.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "graph/dijkstra.h"
#include "graph/forest.h"
#include "graph/graph.h"

namespace hmn::graph {

/// A feasible path plus its bottleneck bandwidth and accumulated latency.
struct ConstrainedPath {
  Path edges;
  double bottleneck_bw = std::numeric_limits<double>::infinity();
  double total_latency = 0.0;
};

namespace detail {

/// Partial path stored as an immutable chain so that the frontier can share
/// prefixes; heads are indices into an arena.  This keeps A*Prune's frontier
/// memory linear in expansions instead of quadratic.
struct ChainNode {
  EdgeId edge;          // edge taken to reach `node`
  NodeId node;          // endpoint reached
  std::int32_t parent;  // arena index of predecessor, -1 for the origin
};

struct Frontier {
  double bottleneck;  // max-min objective: larger is better
  double latency;     // accumulated additive constraint
  std::int32_t chain;  // arena index of the partial path head
  NodeId last;

  // Max-heap by bottleneck; ties broken toward lower latency so that, among
  // equally wide paths, shorter ones surface first (deterministic result).
  bool operator<(const Frontier& o) const {
    // hmn-lint: allow(float-eq, heap comparator tie-break; an epsilon here would break strict weak ordering)
    if (bottleneck != o.bottleneck) return bottleneck < o.bottleneck;
    return latency > o.latency;
  }
};

/// One non-dominated (bottleneck, latency) pair of a partial path queued
/// for a node.
struct Label {
  double bottleneck;
  double latency;
};

}  // namespace detail

/// Search options for the modified A*Prune.
struct AStarPruneOptions {
  /// Per-node Pareto dominance pruning on (bottleneck, latency) labels.  A
  /// partial path reaching node v is discarded if another recorded partial
  /// path reached v with bandwidth >= and latency <=.  With strictly
  /// positive edge latencies this pruning is exact (any walk revisiting a
  /// node is dominated by its own prefix) and reduces the frontier from the
  /// number of feasible simple paths to the number of Pareto-optimal
  /// labels — the difference between minutes and milliseconds per link on
  /// the torus cluster.  Disable only to cross-check against the literal
  /// Algorithm 1 enumeration in tests.
  bool prune_dominated = true;

  /// Precomputed latency-to-destination array (the paper's ar[], one entry
  /// per node) to reuse across calls with the same destination.  When null,
  /// a Dijkstra run computes it.
  const std::vector<double>* lat_to_dest = nullptr;
};

/// The `present` argument of the searches below that admits every edge:
/// they search the whole graph.
struct EveryEdge {
  constexpr bool operator()(EdgeId /*edge*/) const { return true; }
};

/// Caller-owned working memory of `astar_prune_bottleneck`: the chain
/// arena, the frontier heap, the per-node Pareto labels, and the ar[]
/// Dijkstra buffers used when the caller passes no `lat_to_dest`; and of
/// `astar_prune_on_forest`: the walked path and its ar[] values.  A
/// router that keeps one scratch across calls stops allocating once the
/// buffers have grown to the largest search; one scratch may serve graphs
/// of different sizes.  Results do not depend on what earlier calls left
/// in it.
struct AStarPruneScratch {
  std::vector<detail::ChainNode> arena;
  /// Binary heap driven by std::push_heap/std::pop_heap with
  /// Frontier::operator<, exactly as std::priority_queue drives its vector,
  /// so pop order and tie-breaks match.
  std::vector<detail::Frontier> frontier;
  std::vector<std::vector<detail::Label>> labels;  // per node id
  std::vector<NodeId> touched;  // nodes whose label lists are non-empty
  ShortestPaths ar;             // ar[] computed in place of lat_to_dest
  DijkstraScratch ar_heap;
  Path walk;                    // the forest path, in path order
  std::vector<double> walk_ar;  // ar[] of the forest path's nodes
};

/// The paper's modified 1-constrained A*Prune (Algorithm 1).
///
/// Finds a loop-free path origin->destination maximizing the bottleneck of
/// `residual_bw(EdgeId)`, subject to:
///   * every edge on the path has residual_bw >= `demand_bw` (Eq. 9 pruning)
///   * sum of `latency(EdgeId)` over the path <= `max_latency` (Eq. 8),
///     pruned via the Dijkstra latency-to-destination lower bound.
///
/// Returns nullopt when no feasible path exists.  origin == destination
/// yields the empty path (infinite bottleneck, zero latency) — virtual links
/// between co-located guests are handled inside the host (Section 5.2).
///
/// `present(EdgeId)` restricts the search to a subgraph: an edge it
/// rejects is absent, skipped before any other test and by the ar[]
/// Dijkstra, so the search returns what it returns on a copy of the graph
/// without those edges (whose adjacency lists keep their order), whatever
/// the demand and the latency bound.  A caller-supplied `lat_to_dest` must
/// have been computed without them too.  Works in `scratch`; only the
/// returned path allocates.
template <typename BwFn, typename LatFn, typename PresentFn = EveryEdge>
// hmn-lint: hot-path
[[nodiscard]] std::optional<ConstrainedPath> astar_prune_bottleneck(
    const Graph& g, NodeId origin, NodeId destination, double demand_bw,
    double max_latency, BwFn&& residual_bw, LatFn&& latency,
    const AStarPruneOptions& opts, AStarPruneScratch& scratch,
    PresentFn&& present = PresentFn{}) {
  if (origin == destination) return ConstrainedPath{};

  // ar[c] = shortest achievable latency from c to destination (undirected
  // graph: Dijkstra from the destination gives distance-to-destination).
  // Dijkstra skips an edge of infinite weight, as if it were absent.
  if (opts.lat_to_dest == nullptr) {
    dijkstra_into(
        g, destination,
        [&](EdgeId e) {
          return present(e) ? latency(e)
                            : std::numeric_limits<double>::infinity();
        },
        scratch.ar, scratch.ar_heap);
  }
  const std::vector<double>& ar =
      opts.lat_to_dest != nullptr ? *opts.lat_to_dest : scratch.ar.dist;
  if (ar[origin.index()] > max_latency) {
    return std::nullopt;  // even the latency-optimal path is inadmissible
  }

  auto& arena = scratch.arena;
  auto& set = scratch.frontier;
  arena.clear();
  set.clear();
  set.push_back({std::numeric_limits<double>::infinity(), 0.0, -1, origin});

  // Pareto label store per node: non-dominated (bottleneck, latency) pairs
  // of partial paths already queued for that node.  Only the lists the
  // previous search touched are cleared.
  auto& labels = scratch.labels;
  for (const NodeId n : scratch.touched) labels[n.index()].clear();
  scratch.touched.clear();
  if (opts.prune_dominated && labels.size() < g.node_count()) {
    labels.resize(g.node_count());
  }
  auto dominated = [&](NodeId n, double bneck, double lat) {
    for (const detail::Label& l : labels[n.index()]) {
      if (l.bottleneck >= bneck && l.latency <= lat) return true;
    }
    return false;
  };
  auto record = [&](NodeId n, double bneck, double lat) {
    auto& ls = labels[n.index()];
    if (ls.empty()) scratch.touched.push_back(n);
    std::erase_if(ls, [&](const detail::Label& l) {
      return bneck >= l.bottleneck && lat <= l.latency;
    });
    ls.push_back({bneck, lat});
  };

  // Reconstructs the node set of a partial path for the loop check.
  auto on_path = [&](std::int32_t chain, NodeId n) {
    if (n == origin) return true;
    for (std::int32_t i = chain; i >= 0; i = arena[static_cast<std::size_t>(i)].parent) {
      if (arena[static_cast<std::size_t>(i)].node == n) return true;
    }
    return false;
  };

  while (!set.empty()) {
    const detail::Frontier best = set.front();
    std::pop_heap(set.begin(), set.end());
    set.pop_back();
    if (best.last == destination) {
      ConstrainedPath out;
      out.bottleneck_bw = best.bottleneck;
      out.total_latency = best.latency;
      for (std::int32_t i = best.chain; i >= 0;
           i = arena[static_cast<std::size_t>(i)].parent) {
        out.edges.push_back(arena[static_cast<std::size_t>(i)].edge);
      }
      std::reverse(out.edges.begin(), out.edges.end());
      return out;
    }
    for (const Adjacency& adj : g.neighbors(best.last)) {
      if (!present(adj.edge)) continue;
      if (on_path(best.chain, adj.neighbor)) continue;  // loop-free (Eq. 7)
      const double bw = residual_bw(adj.edge);
      if (bw < demand_bw) continue;  // bandwidth pruning (Eq. 9)
      const double lat = latency(adj.edge);
      const double acc = best.latency + lat;
      // Admissibility pruning: optimistic completion must satisfy Eq. 8.
      const double bound = ar[adj.neighbor.index()];
      if (acc + bound > max_latency) continue;
      const double nbneck = std::min(best.bottleneck, bw);
      if (opts.prune_dominated) {
        if (dominated(adj.neighbor, nbneck, acc)) continue;
        record(adj.neighbor, nbneck, acc);
      }
      arena.push_back({adj.edge, adj.neighbor, best.chain});
      set.push_back({nbneck, acc,
                     static_cast<std::int32_t>(arena.size() - 1), adj.neighbor});
      std::push_heap(set.begin(), set.end());
    }
  }
  return std::nullopt;
}

/// Allocating convenience wrapper: one search in a fresh scratch.
template <typename BwFn, typename LatFn>
[[nodiscard]] std::optional<ConstrainedPath> astar_prune_bottleneck(
    const Graph& g, NodeId origin, NodeId destination, double demand_bw,
    double max_latency, BwFn&& residual_bw, LatFn&& latency,
    const AStarPruneOptions& opts = {}) {
  AStarPruneScratch scratch;
  return astar_prune_bottleneck(g, origin, destination, demand_bw,
                                max_latency, residual_bw, latency, opts,
                                scratch);
}

/// The modified A*Prune on a forest: what `astar_prune_bottleneck` returns
/// for the same arguments, bit for bit (the same edges, bottleneck_bw and
/// total_latency, or nullopt in the same cases), without the search or the
/// ar[] Dijkstra.  `forest` must have been built over the graph the edge
/// functions describe.  Why it is exact:
///
///   * On a forest A*Prune can only return the unique simple path or
///     nullopt.  Each node is reached by one partial path, so it gets one
///     label, and there are no ties and no loops; a branch off the path is
///     a dead end, since leaving it toward the destination revisits a node.
///   * A*Prune prunes step i (edge e_i into node v_i) when
///     residual_bw(e_i) < demand_bw, then when acc_i + ar[v_i] >
///     max_latency, where acc_i is the latency summed from `origin` in path
///     order.  Pruning a step of the only path means nullopt, so the walk
///     replays these per-step checks on the same values.  A walk that only
///     tests the total acc_k <= max_latency is not the same: at a bound
///     within an ulp of the path latency, a rounded prefix plus a rounded
///     suffix can exceed the bound while the total does not.
///   * On a tree Dijkstra sets each ar[v] once, to ar[w] + latency(e) for
///     the next node w toward the destination, and keeps it only below
///     +inf.  So ar[] along the path is the suffix sum accumulated from the
///     destination, which the walk computes with the same additions, in
///     O(path length).  Summing each suffix in path order instead rounds
///     differently.
///   * The up-front ar[origin] > max_latency check is replayed as well.
///     It equals step 1's latency check whenever both sums are finite,
///     because IEEE addition is commutative.
///   * Dead edges read as zero bandwidth and infinite latency through
///     `residual_bw` and `latency`, as in the search and in the Dijkstra,
///     which skips infinite edges and so leaves ar = +inf behind them.
///   * Nodes in different components give nullopt, as A*Prune does: its
///     Dijkstra leaves ar[origin] = +inf and its search never reaches the
///     destination.
///   * An edge `present` rejects is absent, as in the search: the subgraph
///     without it is a forest too, in which the two nodes are connected
///     only if the path avoids every absent edge.  Otherwise they lie in
///     different components of it, which gives nullopt.
///
/// Only the returned path allocates once `scratch` has grown to the
/// longest path.
template <typename BwFn, typename LatFn, typename PresentFn = EveryEdge>
// hmn-lint: hot-path
[[nodiscard]] std::optional<ConstrainedPath> astar_prune_on_forest(
    const Forest& forest, NodeId origin, NodeId destination, double demand_bw,
    double max_latency, BwFn&& residual_bw, LatFn&& latency,
    AStarPruneScratch& scratch, PresentFn&& present = PresentFn{}) {
  if (origin == destination) return ConstrainedPath{};
  const Path& walk = scratch.walk;
  if (!forest.path(origin, destination, scratch.walk)) return std::nullopt;
  for (const EdgeId e : walk) {
    if (!present(e)) return std::nullopt;
  }

  // ar[i] of the path's i-th node: 0 at the destination, then Dijkstra's
  // d + w toward the origin.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& ar = scratch.walk_ar;
  ar.resize(walk.size() + 1);
  ar[walk.size()] = 0.0;
  for (std::size_t i = walk.size(); i > 0; --i) {
    const double nd = ar[i] + latency(walk[i - 1]);
    ar[i - 1] = nd < kInf ? nd : kInf;
  }
  if (ar[0] > max_latency) return std::nullopt;

  double acc = 0.0;
  double bottleneck = kInf;
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const double bw = residual_bw(walk[i]);
    if (bw < demand_bw) return std::nullopt;  // bandwidth pruning (Eq. 9)
    acc = acc + latency(walk[i]);
    if (acc + ar[i + 1] > max_latency) return std::nullopt;  // Eq. 8
    bottleneck = std::min(bottleneck, bw);
  }
  ConstrainedPath out;
  out.edges = walk;
  out.bottleneck_bw = bottleneck;
  out.total_latency = acc;
  return out;
}

}  // namespace hmn::graph
