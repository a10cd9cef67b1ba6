#include "core/networking.h"

#include <cassert>
#include <limits>

#include "graph/dfs_path.h"
#include "util/rng.h"

namespace hmn::core {

LinkRouter::LinkRouter(const ResidualState& state,
                       const std::vector<bool>* dead_edges)
    : LinkRouter(state, own_tables_) {
  dead_edges_ = dead_edges;
}

LinkRouter::LinkRouter(const ResidualState& state, LatencyTables& tables)
    : state_(&state), dead_edges_(nullptr), tables_(&tables) {}

void LinkRouter::restrict_to(const std::vector<char>* region) {
  assert(tables_ == &own_tables_ && "a restricted router owns its tables");
  region_ = region;
  own_tables_.to_dest.clear();  // refilled on the next search
}

bool LinkRouter::present(EdgeId e) const {
  if (region_ == nullptr) return true;
  const graph::EdgeEndpoints ends = state_->cluster().graph().endpoints(e);
  return (*region_)[ends.a.index()] != 0 && (*region_)[ends.b.index()] != 0;
}

double LinkRouter::residual_bw(EdgeId e) const {
  return dead(e) ? 0.0 : state_->residual_bw(e);
}

double LinkRouter::latency(EdgeId e) const {
  return dead(e) ? std::numeric_limits<double>::infinity()
                 : state_->cluster().link(e).latency_ms;
}

// hmn-lint: hot-path
const std::vector<double>& LinkRouter::lat_to_dest(NodeId dest) {
  // Physical latencies, the dead-edge mask and the region never change
  // while a table lives (restrict_to drops the tables), so the Dijkstra
  // latency-to-destination arrays (Algorithm 1's ar[]) are computed once
  // per distinct destination host and reused across virtual links — and,
  // through borrowed tables, across routers.  The table is a flat vector
  // indexed by destination node id: destination lookup is the innermost
  // per-virtual-link operation, and hashing NodeIds dominated the stage on
  // large fabrics.  One Dijkstra result/heap scratch is shared by every
  // run so the per-link allocation churn disappears.  An absent edge
  // weighs +inf, which Dijkstra skips as if it were not in the graph.
  LatencyTables& t = *tables_;
  const graph::Graph& g = state_->cluster().graph();
  if (t.to_dest.size() != g.node_count()) t.to_dest.assign(g.node_count(), {});
  std::vector<double>& slot = t.to_dest[dest.index()];
  if (slot.empty()) {
    graph::dijkstra_into(
        g, dest,
        [this](EdgeId e) {
          return present(e) ? latency(e)
                            : std::numeric_limits<double>::infinity();
        },
        t.sp, t.heap);
    slot = t.sp.dist;
  }
  return slot;
}

// hmn-lint: hot-path
std::optional<graph::ConstrainedPath> LinkRouter::route(
    NodeId src, NodeId dst, const model::VirtualLinkDemand& demand) {
  const graph::Graph& g = state_->cluster().graph();
  if (!probed_) {
    // The forest is built once per fabric; the walk's buffers are sized
    // here so that routing allocates nothing but the returned paths.
    probed_ = true;
    forest_ = state_->cluster().forest();
    if (forest_ != nullptr) {
      scratch_.walk.reserve(g.node_count());
      scratch_.walk_ar.reserve(g.node_count() + 1);
    }
  }
  auto bw = [this](EdgeId e) { return residual_bw(e); };
  auto lat = [this](EdgeId e) { return latency(e); };
  auto present = [this](EdgeId e) { return this->present(e); };
  if (forest_ != nullptr) {
    return graph::astar_prune_on_forest(*forest_, src, dst,
                                        demand.bandwidth_mbps,
                                        demand.max_latency_ms, bw, lat,
                                        scratch_, present);
  }
  graph::AStarPruneOptions ap;
  ap.lat_to_dest = &lat_to_dest(dst);
  return graph::astar_prune_bottleneck(g, src, dst, demand.bandwidth_mbps,
                                       demand.max_latency_ms, bw, lat, ap,
                                       scratch_, present);
}

NetworkingResult run_networking(const model::VirtualEnvironment& venv,
                                ResidualState& state,
                                const std::vector<NodeId>& guest_host,
                                const NetworkingOptions& opts,
                                LinkRouter* router) {
  NetworkingResult result;
  result.link_paths.assign(venv.link_count(), graph::Path{});
  const graph::Graph& g = state.cluster().graph();
  const model::PhysicalCluster& cluster = state.cluster();

  auto residual_bw = [&](EdgeId e) { return state.residual_bw(e); };
  auto latency = [&](EdgeId e) { return cluster.link(e).latency_ms; };

  std::optional<LinkRouter> own_router;
  if (router == nullptr && opts.algorithm == PathAlgorithm::kAStarPrune) {
    router = &own_router.emplace(state);
  }
  graph::ShortestPaths sp_scratch;  // kMinLatency's Dijkstra, reused per link
  graph::DijkstraScratch heap_scratch;
  util::Rng dfs_rng(opts.shuffle_seed);

  for (const VirtLinkId l :
       ordered_links(venv, opts.order, opts.shuffle_seed)) {
    const auto [vs, vd] = venv.endpoints(l);
    const NodeId s = guest_host[vs.index()];
    const NodeId d = guest_host[vd.index()];
    if (s == d) continue;  // intra-host: empty path, handled in the VMM

    const model::VirtualLinkDemand& demand = venv.link(l);
    std::optional<graph::ConstrainedPath> path;
    switch (opts.algorithm) {
      case PathAlgorithm::kAStarPrune:
        path = router->route(s, d, demand);
        break;
      case PathAlgorithm::kMinLatency: {
        // Dijkstra over edges with enough residual bandwidth; the result is
        // latency-optimal for this link but ignores bottleneck headroom.
        auto filtered = [&](EdgeId e) {
          return state.residual_bw(e) >= demand.bandwidth_mbps
                     ? cluster.link(e).latency_ms
                     : std::numeric_limits<double>::infinity();
        };
        graph::dijkstra_into(g, s, filtered, sp_scratch, heap_scratch);
        const auto& sp = sp_scratch;
        if (sp.reachable(d) &&
            sp.dist[d.index()] <= demand.max_latency_ms) {
          graph::ConstrainedPath cp;
          cp.edges = graph::extract_path(g, sp, s, d);
          cp.total_latency = sp.dist[d.index()];
          path = std::move(cp);
        }
        break;
      }
      case PathAlgorithm::kDfsNaive: {
        graph::DfsOptions dfs;
        dfs.rng = opts.randomize_dfs ? &dfs_rng : nullptr;
        dfs.max_expansions = opts.dfs_max_expansions;
        path = graph::dfs_first_path(g, s, d, residual_bw, latency, dfs);
        // The naive search ignores constraints; reject its path when the
        // virtual link's demands are not met.
        if (path.has_value() &&
            (path->bottleneck_bw < demand.bandwidth_mbps ||
             path->total_latency > demand.max_latency_ms)) {
          path.reset();
        }
        break;
      }
      case PathAlgorithm::kDfsPruned: {
        graph::DfsOptions dfs;
        dfs.rng = opts.randomize_dfs ? &dfs_rng : nullptr;
        dfs.max_expansions = opts.dfs_max_expansions;
        path = graph::dfs_find_path(g, s, d, demand.bandwidth_mbps,
                                    demand.max_latency_ms, residual_bw,
                                    latency, dfs);
        break;
      }
    }
    if (!path.has_value()) {
      result.detail = "no feasible path for virtual link " +
                      std::to_string(l.value());
      return result;
    }
    state.reserve_bw(path->edges, demand.bandwidth_mbps);
    result.link_paths[l.index()] = std::move(path->edges);
    ++result.links_routed;
  }

  result.ok = true;
  return result;
}

}  // namespace hmn::core
