#include "core/incremental.h"

#include "core/networking.h"
#include "core/residual.h"
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

  while (!pending.empty()) {
    // Pick the pending guest with the strongest tie to the placed set;
    // isolated-from-placed guests go last (affinity -1 sorts them behind).
    std::size_t best_idx = 0;
    double best_bw = -2.0;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const double bw =
          heaviest_placed_neighbor(grown, mapping.guest_host, pending[i])
              .bandwidth_mbps;
      if (bw > best_bw) {
        best_bw = bw;
        best_idx = i;
      }
    }
    const GuestId g = pending[best_idx];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best_idx));

    const NodeId target = affinity_host(grown, state, mapping.guest_host, g);
    if (!target.valid()) {
      MapOutcome out = MapOutcome::failure(
          MapErrorCode::kHostingFailed,
          "no host fits new guest " + std::to_string(g.value()));
      out.stats.hosting_seconds = hosting_timer.elapsed_seconds();
      out.stats.total_seconds = total.elapsed_seconds();
      return out;
    }
    state.place(grown.guest(g), target);
    mapping.guest_host[g.index()] = target;
  }
  const double hosting_seconds = hosting_timer.elapsed_seconds();

  // --- Route new links over residual bandwidth, heaviest first; old links
  // keep their paths.
  const util::Timer net_timer;
  LinkRouter router(state);
  std::size_t routed_count = 0;
  for (const VirtLinkId l :
       ordered_links(grown, LinkOrder::kBandwidthDescending, 0)) {
    if (l.index() < base.link_paths.size()) continue;
    const auto ep = grown.endpoints(l);
    const NodeId s = mapping.guest_host[ep.src.index()];
    const NodeId d = mapping.guest_host[ep.dst.index()];
    if (s == d) continue;
    const auto& demand = grown.link(l);
    auto path = router.route(s, d, demand);
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

  MapOutcome out;
  out.mapping = std::move(mapping);
  out.stats.hosting_seconds = hosting_seconds;
  out.stats.networking_seconds = net_timer.elapsed_seconds();
  out.stats.links_routed = routed_count;
  out.stats.total_seconds = total.elapsed_seconds();
  return out;
}

}  // namespace hmn::core
