#include "core/repair.h"

#include <algorithm>
#include <string>

#include "core/networking.h"
#include "core/residual.h"
#include "util/timer.h"

namespace hmn::core {
namespace {

bool edge_touches(const graph::Graph& g, EdgeId e, NodeId node) {
  const auto ep = g.endpoints(e);
  return ep.a == node || ep.b == node;
}

}  // namespace

bool mapping_avoids_node(const model::PhysicalCluster& cluster,
                         const Mapping& mapping, NodeId host) {
  for (const NodeId h : mapping.guest_host) {
    if (h == host) return false;
  }
  const graph::Graph& g = cluster.graph();
  for (const auto& path : mapping.link_paths) {
    for (const EdgeId e : path) {
      if (edge_touches(g, e, host)) return false;
    }
  }
  return true;
}

bool mapping_avoids_edge(const Mapping& mapping, EdgeId edge) {
  for (const auto& path : mapping.link_paths) {
    for (const EdgeId e : path) {
      if (e == edge) return false;
    }
  }
  return true;
}

MapOutcome repair_mapping(const model::PhysicalCluster& cluster,
                          const model::VirtualEnvironment& venv,
                          const Mapping& mapping, const RepairOptions& opts,
                          RepairStats* stats) {
  const util::Timer total;
  const graph::Graph& g = cluster.graph();

  // --- Dead-element masks.  An edge incident to a dead node is dead too.
  std::vector<bool> node_dead(cluster.node_count(), false);
  std::vector<bool> edge_dead(cluster.link_count(), false);
  for (const NodeId n : opts.failed.nodes) {
    if (!n.valid() || n.index() >= cluster.node_count()) {
      return MapOutcome::failure(MapErrorCode::kInvalidInput,
                                 "failed host out of range");
    }
    node_dead[n.index()] = true;
    for (const graph::Adjacency& adj : g.neighbors(n)) {
      edge_dead[adj.edge.index()] = true;
    }
  }
  for (const EdgeId e : opts.failed.links) {
    if (!e.valid() || e.index() >= cluster.link_count()) {
      return MapOutcome::failure(MapErrorCode::kInvalidInput,
                                 "failed link out of range");
    }
    edge_dead[e.index()] = true;
  }

  // --- Identify and strip the damage: evicted guests lose their host and
  // affected links their path; the residuals are those of what survives.
  auto on_dead_host = [&](NodeId h) {
    return h.valid() && node_dead[h.index()];
  };
  Mapping repaired = mapping;
  std::vector<GuestId> evicted;
  for (std::size_t gi = 0; gi < mapping.guest_host.size(); ++gi) {
    if (on_dead_host(mapping.guest_host[gi])) {
      evicted.push_back(GuestId{static_cast<GuestId::underlying_type>(gi)});
      repaired.guest_host[gi] = NodeId::invalid();
    }
  }
  auto crosses_dead_edge = [&](const graph::Path& path) {
    return std::any_of(path.begin(), path.end(),
                       [&](EdgeId e) { return edge_dead[e.index()]; });
  };
  std::vector<bool> link_affected(venv.link_count(), false);
  for (std::size_t li = 0; li < venv.link_count(); ++li) {
    const auto ep = venv.endpoints(
        VirtLinkId{static_cast<VirtLinkId::underlying_type>(li)});
    const NodeId hs = mapping.guest_host[ep.src.index()];
    const NodeId hd = mapping.guest_host[ep.dst.index()];
    const graph::Path& path = mapping.link_paths[li];
    // A dark link (empty path between distinct surviving hosts) is damage
    // from an earlier degraded repair — re-attempt it, which makes repair
    // idempotent and lets recoveries heal degraded tenants.
    link_affected[li] = on_dead_host(hs) || on_dead_host(hd) ||
                        (path.empty() ? hs != hd : crosses_dead_edge(path));
    if (link_affected[li]) repaired.link_paths[li].clear();
  }
  ResidualState state(cluster, venv, repaired);

  // --- Re-place evicted guests with the Hosting stage's affinity rule,
  // never on a dead host.
  for (const GuestId guest : evicted) {
    const NodeId target =
        affinity_host(venv, state, repaired.guest_host, guest, &node_dead);
    if (!target.valid()) {
      MapOutcome out = MapOutcome::failure(
          MapErrorCode::kHostingFailed,
          "no surviving host fits evicted guest " +
              std::to_string(guest.value()));
      out.stats.total_seconds = total.elapsed_seconds();
      return out;
    }
    state.place(venv.guest(guest), target);
    repaired.guest_host[guest.index()] = target;
  }

  // --- Re-route affected links over the surviving fabric, heaviest first.
  LinkRouter router(state, &edge_dead);
  std::size_t rerouted = 0;
  std::vector<VirtLinkId> dark;
  for (const VirtLinkId l :
       ordered_links(venv, LinkOrder::kBandwidthDescending, 0)) {
    if (!link_affected[l.index()]) continue;
    const auto ep = venv.endpoints(l);
    const NodeId s = repaired.guest_host[ep.src.index()];
    const NodeId d = repaired.guest_host[ep.dst.index()];
    if (s == d) continue;  // refugees co-located: intra-host now
    const auto& demand = venv.link(l);
    auto path = router.route(s, d, demand);
    if (!path.has_value()) {
      // Degraded SLA: only *best-effort* links may go dark.  A critical
      // link with no surviving path fails the repair outright, whatever
      // allow_dark_links says — the tenant declared it cannot run without
      // this link, so the caller must evict (or fully remap), not degrade.
      if (opts.allow_dark_links && !demand.critical) {
        dark.push_back(l);  // path stays empty; no bandwidth reserved
        continue;
      }
      MapOutcome out = MapOutcome::failure(
          MapErrorCode::kNetworkingFailed,
          std::string("no surviving path for ") +
              (demand.critical ? "critical " : "") + "virtual link " +
              std::to_string(l.value()));
      out.stats.total_seconds = total.elapsed_seconds();
      return out;
    }
    state.reserve_bw(path->edges, demand.bandwidth_mbps);
    repaired.link_paths[l.index()] = std::move(path->edges);
    ++rerouted;
  }

  if (stats != nullptr) {
    stats->guests_moved = evicted.size();
    stats->links_rerouted = rerouted;
    stats->dark_links = dark;
  }
  MapOutcome out;
  out.mapping = std::move(repaired);
  out.stats.links_routed = rerouted;
  out.stats.total_seconds = total.elapsed_seconds();
  return out;
}

MapOutcome repair_mapping(const model::PhysicalCluster& cluster,
                          const model::VirtualEnvironment& venv,
                          const Mapping& mapping, NodeId failed_host,
                          RepairStats* stats) {
  RepairOptions opts;
  opts.failed.nodes.push_back(failed_host);
  return repair_mapping(cluster, venv, mapping, opts, stats);
}

}  // namespace hmn::core
