// Stage 3 — Networking (Section 4.3): route every virtual link over the
// physical fabric.
//
// Virtual links are routed in descending bandwidth order with the modified
// 1-constrained A*Prune (Algorithm 1), which maximizes bottleneck residual
// bandwidth subject to the latency bound, keeping wide links available for
// the rest of the list.  Links between co-located guests are handled inside
// the host (empty path; bw = inf, lat = 0 per Section 3.2) and are not
// counted as routed.  A DFS path finder can be substituted to build the
// paper's Hosting-with-Search (HS) baseline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/hosting.h"  // LinkOrder
#include "core/residual.h"
#include "graph/astar_prune.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "model/virtual_environment.h"

namespace hmn::core {

/// Path-finding algorithm used by the stage.
enum class PathAlgorithm : std::uint8_t {
  /// The paper's modified Algorithm 1 (used by HMN and RA): maximize
  /// bottleneck residual bandwidth subject to the latency bound.  "The
  /// rationale behind the choice of this metric is to keep the links with
  /// the largest amount of bandwidth available to map the rest of the
  /// links" (Section 4.3).
  kAStarPrune,
  /// Ablation of that rationale: minimize accumulated latency subject to
  /// per-edge residual bandwidth >= demand (Dijkstra over the feasible
  /// subgraph).  Routes each link optimally in isolation but spends wide
  /// links greedily — bench E6 measures what that costs the rest of the
  /// list.
  kMinLatency,
  /// Literal DFS baseline (used by R and HS): the first simple path found,
  /// checked against the link's constraints afterwards.
  kDfsNaive,
  /// Constraint-pruned backtracking DFS: finds a feasible path whenever one
  /// exists w.r.t. residual bandwidth and latency (used by the path-finder
  /// ablation, bench E6).
  kDfsPruned,
};

struct NetworkingOptions {
  PathAlgorithm algorithm = PathAlgorithm::kAStarPrune;
  LinkOrder order = LinkOrder::kBandwidthDescending;
  std::uint64_t shuffle_seed = 0;  // for LinkOrder::kRandom and DFS shuffling
  /// Shuffle DFS neighbor expansion (the Random baseline retries with
  /// different DFS orders; deterministic DFS would retry identically).
  bool randomize_dfs = false;
  /// Expansion budget per DFS path search (0 = unlimited).
  std::size_t dfs_max_expansions = 0;
};

struct NetworkingResult {
  bool ok = false;
  std::string detail;                   // failure explanation when !ok
  std::vector<graph::Path> link_paths;  // per virtual link, when ok
  std::size_t links_routed = 0;         // inter-host links actually routed
};

/// Algorithm 1's ar[] tables: the Dijkstra latency-to-destination array of
/// every destination node routed to so far, plus the Dijkstra buffers that
/// fill them.  The tables depend only on the fabric's link latencies and
/// the router's dead-edge mask, never on residual bandwidth, so they stay
/// valid for as long as both are unchanged — across virtual links, across
/// routers and across mapper calls.  The type holds no pointer into the
/// cluster: an owner that moves cannot leave it dangling.  Only a router
/// over a graph with a cycle fills them; on a forest it walks the unique
/// path and needs no table.
struct LatencyTables {
  /// Per destination node id; an empty slot means "not computed yet".
  std::vector<std::vector<double>> to_dest;
  graph::ShortestPaths sp;
  graph::DijkstraScratch heap;
};

/// Algorithm 1's per-link step: routes one virtual link with the modified
/// A*Prune over `state`, reading residual bandwidth live, so reservations
/// made between calls constrain later links.  The Networking stage, mapping
/// growth (extend_mapping) and repair (repair_mapping) all route through
/// this one object.  It keeps one A*Prune scratch for every link it
/// routes.
///
/// On its first route the router asks the cluster for its fabric's forest
/// (model::Fabric::forest, one BFS per fabric, shared by every router over
/// it).  Every tree fabric has one: a switched cluster, a switch tree, and
/// the shards, regions and coarse levels cut from them.  Then each route
/// walks the unique path and replays A*Prune's checks along it
/// (graph::astar_prune_on_forest), which gives the search's answer bit for
/// bit without the search or an ar[] table.  On a graph with a cycle it
/// runs graph::astar_prune_bottleneck over the ar[] tables.
///
/// `dead_edges`, when non-null, is indexed by EdgeId: a flagged edge reads
/// as zero residual bandwidth and infinite latency, both in the search and
/// in the latency-to-destination Dijkstra.  The infinite latency is what
/// keeps a 0-Mbps virtual link, which passes any bandwidth test, off a dead
/// edge.  The mask and `state` must outlive the router, and the mask must
/// not change while it lives.
///
/// restrict_to() confines the router to a region of the cluster: the edges
/// with an endpoint outside it are absent, as if the router ran on the
/// subcluster the region induces (topology::induced_subcluster), which
/// returns the same paths in its own edge ids.
class LinkRouter {
 public:
  /// Owns its ar[] tables.
  explicit LinkRouter(const ResidualState& state,
                      const std::vector<bool>* dead_edges = nullptr);
  /// Borrows `tables`, which must have been filled for latencies equal to
  /// those of `state.cluster()` with no dead edges (or be empty), and must
  /// outlive the router.  Tables of another node count are reset.  A router
  /// over a forest leaves them as they are.
  LinkRouter(const ResidualState& state, LatencyTables& tables);

  LinkRouter(const LinkRouter&) = delete;
  LinkRouter& operator=(const LinkRouter&) = delete;

  /// Routes inside the region `region` flags (indexed by NodeId) from now
  /// on; null lifts the restriction.  An edge with an endpoint outside the
  /// region is absent: on no path, whatever the demand and the latency
  /// bound (unlike a dead edge, which a 0-Mbps link with an infinite bound
  /// may cross), and skipped by the ar[] Dijkstra.  The ar[] tables depend
  /// on the region, so the call drops those filled so far; only a router
  /// that owns its tables may be restricted.  The mask must outlive the
  /// router and must not change until the next call.
  void restrict_to(const std::vector<char>* region);

  /// A feasible path from host `src` to host `dst` (src != dst) for
  /// `demand`, maximizing bottleneck residual bandwidth under the latency
  /// bound; nullopt when none exists.  Reserves nothing: the caller
  /// reserves `demand` along the path it keeps.
  [[nodiscard]] std::optional<graph::ConstrainedPath> route(
      NodeId src, NodeId dst, const model::VirtualLinkDemand& demand);

 private:
  [[nodiscard]] bool dead(EdgeId e) const {
    return dead_edges_ != nullptr && (*dead_edges_)[e.index()];
  }
  [[nodiscard]] bool present(EdgeId e) const;
  [[nodiscard]] double residual_bw(EdgeId e) const;
  [[nodiscard]] double latency(EdgeId e) const;
  /// Algorithm 1's ar[] for `dest`, computed on first use.
  [[nodiscard]] const std::vector<double>& lat_to_dest(NodeId dest);

  const ResidualState* state_;
  const std::vector<bool>* dead_edges_;
  const std::vector<char>* region_ = nullptr;  // null: the whole cluster
  LatencyTables own_tables_;  // unused while borrowing
  LatencyTables* tables_;     // &own_tables_ or the borrowed tables
  graph::AStarPruneScratch scratch_;
  bool probed_ = false;  // forest_ is known once the first route ran
  const graph::Forest* forest_ = nullptr;  // the fabric's; null on a cycle
};

/// Runs the Networking stage over a completed placement, reserving
/// bandwidth in `state` for every routed link.  On failure the state
/// retains partial reservations; callers discard it.  `router`, when
/// non-null, must have been built over `state`; the A*Prune algorithm then
/// routes through it, so a caller that routes many placements keeps its
/// ar[] tables and scratch.  When null the stage builds its own router.
[[nodiscard]] NetworkingResult run_networking(
    const model::VirtualEnvironment& venv, ResidualState& state,
    const std::vector<NodeId>& guest_host, const NetworkingOptions& opts = {},
    LinkRouter* router = nullptr);

}  // namespace hmn::core
