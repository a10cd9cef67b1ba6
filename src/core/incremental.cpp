#include "core/incremental.h"

#include <algorithm>
#include <unordered_map>

#include "core/residual.h"
#include "graph/astar_prune.h"
#include "graph/dijkstra.h"
#include "util/timer.h"

namespace hmn::core {

MapOutcome extend_mapping(const model::PhysicalCluster& cluster,
                          const model::VirtualEnvironment& grown,
                          const Mapping& base) {
  const util::Timer total;
  if (cluster.host_count() == 0) {
    return MapOutcome::failure(MapErrorCode::kInvalidInput,
                               "cluster has no hosts");
  }
  if (base.guest_host.size() > grown.guest_count() ||
      base.link_paths.size() > grown.link_count()) {
    return MapOutcome::failure(
        MapErrorCode::kInvalidInput,
        "base mapping is larger than the grown environment");
  }

  // The residuals of the base mapping: only the guests/links it covers.
  ResidualState state(cluster, grown, base);
  Mapping mapping = base;
  mapping.guest_host.resize(grown.guest_count(), NodeId::invalid());
  mapping.link_paths.resize(grown.link_count());

  // --- Place new guests: heaviest-affinity first.  New guests are
  // processed in descending order of their strongest link to an
  // already-placed guest, mirroring the Hosting stage's "heavy links
  // co-locate first" rule at the increment.
  const std::size_t first_new = base.guest_host.size();
  const util::Timer hosting_timer;
  std::vector<GuestId> pending;
  for (std::size_t g = first_new; g < grown.guest_count(); ++g) {
    pending.push_back(GuestId{static_cast<GuestId::underlying_type>(g)});
  }

  auto placed = [&](GuestId g) { return mapping.guest_host[g.index()].valid(); };
  auto strongest_placed_neighbor = [&](GuestId g) {
    double best_bw = -1.0;
    NodeId best_host = NodeId::invalid();
    for (const VirtLinkId l : grown.links_of(g)) {
      const GuestId other = grown.endpoints(l).other(g);
      if (other == g || !placed(other)) continue;
      if (grown.link(l).bandwidth_mbps > best_bw) {
        best_bw = grown.link(l).bandwidth_mbps;
        best_host = mapping.guest_host[other.index()];
      }
    }
    return std::pair{best_bw, best_host};
  };
  auto most_available_fitting = [&](const model::GuestRequirements& req) {
    NodeId best = NodeId::invalid();
    double best_proc = 0.0;
    for (const NodeId h : cluster.hosts()) {
      if (!state.fits(req, h)) continue;
      if (!best.valid() || state.residual_proc(h) > best_proc) {
        best = h;
        best_proc = state.residual_proc(h);
      }
    }
    return best;
  };

  while (!pending.empty()) {
    // Pick the pending guest with the strongest tie to the placed set;
    // isolated-from-placed guests go last (affinity -1 sorts them behind).
    std::size_t best_idx = 0;
    double best_bw = -2.0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const double bw = strongest_placed_neighbor(pending[i]).first;
      if (bw > best_bw) {
        best_bw = bw;
        best_idx = i;
      }
    }
    const GuestId g = pending[best_idx];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best_idx));

    const auto& req = grown.guest(g);
    NodeId target = strongest_placed_neighbor(g).second;
    if (!target.valid() || !state.fits(req, target)) {
      target = most_available_fitting(req);
    }
    if (!target.valid()) {
      MapOutcome out = MapOutcome::failure(
          MapErrorCode::kHostingFailed,
          "no host fits new guest " + std::to_string(g.value()));
      out.stats.hosting_seconds = hosting_timer.elapsed_seconds();
      out.stats.total_seconds = total.elapsed_seconds();
      return out;
    }
    state.place(req, target);
    mapping.guest_host[g.index()] = target;
  }
  const double hosting_seconds = hosting_timer.elapsed_seconds();

  // --- Route new links over residual bandwidth.  run_networking routes
  // every link of a venv, so build the stage input as "only the new links"
  // by temporarily treating old links as already-routed: we call it on the
  // grown venv but skip links with an existing path via a filtered pass.
  const util::Timer net_timer;
  // Rather than duplicate run_networking's internals, route the new links
  // through a thin venv view: sort new links by descending bandwidth and
  // use the same A*Prune machinery per link.
  std::vector<VirtLinkId> new_links;
  for (std::size_t l = base.link_paths.size(); l < grown.link_count(); ++l) {
    new_links.push_back(VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)});
  }
  std::stable_sort(new_links.begin(), new_links.end(),
                   [&](VirtLinkId a, VirtLinkId b) {
                     return grown.link(a).bandwidth_mbps >
                            grown.link(b).bandwidth_mbps;
                   });

  // Reuse run_networking by constructing a sub-environment is costlier
  // than routing directly; per-link A*Prune mirrors NetworkingStage.
  std::size_t routed_count = 0;
  {
    const graph::Graph& g = cluster.graph();
    auto residual_bw = [&](EdgeId e) { return state.residual_bw(e); };
    auto latency = [&](EdgeId e) { return cluster.link(e).latency_ms; };
    // hmn-lint: allow(unordered-iter, per-destination A* bound cache; keyed find/emplace only and never iterated — results are consumed in virtual-link order)
    std::unordered_map<NodeId, std::vector<double>> ar_cache;
    auto ar_for = [&](NodeId dest) -> const std::vector<double>& {
      auto it = ar_cache.find(dest);
      if (it == ar_cache.end()) {
        it = ar_cache.emplace(dest, graph::dijkstra(g, dest, latency).dist)
                 .first;
      }
      return it->second;
    };
    for (const VirtLinkId l : new_links) {
      const auto ep = grown.endpoints(l);
      const NodeId s = mapping.guest_host[ep.src.index()];
      const NodeId d = mapping.guest_host[ep.dst.index()];
      if (s == d) continue;
      const auto& demand = grown.link(l);
      graph::AStarPruneOptions ap;
      ap.lat_to_dest = &ar_for(d);
      auto path = graph::astar_prune_bottleneck(
          g, s, d, demand.bandwidth_mbps, demand.max_latency_ms, residual_bw,
          latency, ap);
      if (!path.has_value()) {
        MapOutcome out = MapOutcome::failure(
            MapErrorCode::kNetworkingFailed,
            "no feasible path for new virtual link " +
                std::to_string(l.value()));
        out.stats.hosting_seconds = hosting_seconds;
        out.stats.networking_seconds = net_timer.elapsed_seconds();
        out.stats.total_seconds = total.elapsed_seconds();
        return out;
      }
      state.reserve_bw(path->edges, demand.bandwidth_mbps);
      mapping.link_paths[l.index()] = std::move(path->edges);
      ++routed_count;
    }
  }

  MapOutcome out;
  out.mapping = std::move(mapping);
  out.stats.hosting_seconds = hosting_seconds;
  out.stats.networking_seconds = net_timer.elapsed_seconds();
  out.stats.links_routed = routed_count;
  out.stats.total_seconds = total.elapsed_seconds();
  return out;
}

}  // namespace hmn::core
