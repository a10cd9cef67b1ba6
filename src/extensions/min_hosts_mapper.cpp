#include "extensions/min_hosts_mapper.h"

#include <algorithm>

#include "core/networking.h"
#include "core/residual.h"
#include "util/timer.h"

namespace hmn::extensions {

core::MapOutcome MinHostsMapper::map(const model::PhysicalCluster& cluster,
                                     const model::VirtualEnvironment& venv,
                                     std::uint64_t /*seed*/) const {
  using core::MapErrorCode;
  using core::MapOutcome;

  const util::Timer total;
  if (cluster.host_count() == 0) {
    return MapOutcome::failure(MapErrorCode::kInvalidInput,
                               "cluster has no hosts");
  }
  core::ResidualState state(cluster);

  // Hosts in descending capacity (memory as primary bin dimension), so the
  // largest bins open first and fewer bins open overall.
  util::Timer stage;
  std::vector<NodeId> bins = cluster.hosts();
  std::sort(bins.begin(), bins.end(), [&](NodeId a, NodeId b) {
    const double ma = cluster.capacity(a).mem_mb;
    const double mb = cluster.capacity(b).mem_mb;
    // hmn-lint: allow(float-eq, comparator tie-break; an epsilon here would break strict weak ordering)
    if (ma != mb) return ma > mb;
    return a < b;
  });

  // Guests in descending memory footprint (first-fit-decreasing).
  std::vector<GuestId> order;
  order.reserve(venv.guest_count());
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    order.push_back(GuestId{static_cast<GuestId::underlying_type>(g)});
  }
  std::sort(order.begin(), order.end(), [&](GuestId a, GuestId b) {
    const double ma = venv.guest(a).mem_mb;
    const double mb = venv.guest(b).mem_mb;
    // hmn-lint: allow(float-eq, comparator tie-break; an epsilon here would break strict weak ordering)
    if (ma != mb) return ma > mb;
    return a < b;
  });

  std::vector<NodeId> placement(venv.guest_count(), NodeId::invalid());
  std::size_t open = 0;  // bins [0, open) already hold at least one guest
  for (const GuestId g : order) {
    const auto& req = venv.guest(g);
    NodeId chosen = NodeId::invalid();
    for (std::size_t b = 0; b < open; ++b) {
      if (state.fits(req, bins[b])) {
        chosen = bins[b];
        break;
      }
    }
    while (!chosen.valid() && open < bins.size()) {
      if (state.fits(req, bins[open])) chosen = bins[open];
      ++open;
    }
    if (!chosen.valid()) {
      MapOutcome out = MapOutcome::failure(
          MapErrorCode::kHostingFailed,
          "no host fits guest " + std::to_string(g.value()));
      out.stats.hosting_seconds = stage.elapsed_seconds();
      out.stats.total_seconds = total.elapsed_seconds();
      return out;
    }
    state.place(req, chosen);
    placement[g.index()] = chosen;
  }
  const double hosting_seconds = stage.elapsed_seconds();

  stage.restart();
  core::NetworkingResult routed =
      core::run_networking(venv, state, placement);
  MapOutcome out;
  out.stats.hosting_seconds = hosting_seconds;
  out.stats.networking_seconds = stage.elapsed_seconds();
  if (!routed.ok) {
    out.error = MapErrorCode::kNetworkingFailed;
    out.detail = routed.detail;
    out.stats.total_seconds = total.elapsed_seconds();
    return out;
  }
  core::Mapping mapping;
  mapping.guest_host = std::move(placement);
  mapping.link_paths = std::move(routed.link_paths);
  out.mapping = std::move(mapping);
  out.stats.links_routed = routed.links_routed;
  out.stats.total_seconds = total.elapsed_seconds();
  return out;
}

}  // namespace hmn::extensions
