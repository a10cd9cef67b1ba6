#include "extensions/greedy_rank_mapper.h"

#include <algorithm>

#include "core/networking.h"
#include "core/residual.h"
#include "util/timer.h"

namespace hmn::extensions {
namespace {

/// Availability rank of a host: residual CPU x (1 + residual bandwidth of
/// incident physical links).  The bandwidth factor steers guests toward
/// hosts whose uplinks still have headroom, the signature of the
/// greedy-VNE family.
double host_rank(const core::ResidualState& state, NodeId host) {
  double incident_bw = 0.0;
  for (const graph::Adjacency& adj :
       state.cluster().graph().neighbors(host)) {
    incident_bw += state.residual_bw(adj.edge);
  }
  return std::max(0.0, state.residual_proc(host)) * (1.0 + incident_bw);
}

/// Demand rank of a guest: vproc x (1 + total incident virtual bandwidth).
double guest_rank(const model::VirtualEnvironment& venv, GuestId g) {
  double incident_bw = 0.0;
  for (const VirtLinkId l : venv.links_of(g)) {
    incident_bw += venv.link(l).bandwidth_mbps;
  }
  return venv.guest(g).proc_mips * (1.0 + incident_bw);
}

}  // namespace

core::MapOutcome GreedyRankMapper::map(const model::PhysicalCluster& cluster,
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

  // Guests in descending demand rank.
  util::Timer stage;
  std::vector<GuestId> order;
  order.reserve(venv.guest_count());
  for (std::size_t g = 0; g < venv.guest_count(); ++g) {
    order.push_back(GuestId{static_cast<GuestId::underlying_type>(g)});
  }
  std::stable_sort(order.begin(), order.end(), [&](GuestId a, GuestId b) {
    return guest_rank(venv, a) > guest_rank(venv, b);
  });

  std::vector<NodeId> placement(venv.guest_count(), NodeId::invalid());
  for (const GuestId g : order) {
    const auto& req = venv.guest(g);
    NodeId best = NodeId::invalid();
    double best_rank = -1.0;
    for (const NodeId h : cluster.hosts()) {
      if (!state.fits(req, h)) continue;
      const double rank = host_rank(state, h);
      if (rank > best_rank) {
        best_rank = rank;
        best = h;
      }
    }
    if (!best.valid()) {
      MapOutcome out = MapOutcome::failure(
          MapErrorCode::kHostingFailed,
          "no host fits guest " + std::to_string(g.value()));
      out.stats.hosting_seconds = stage.elapsed_seconds();
      out.stats.total_seconds = total.elapsed_seconds();
      return out;
    }
    state.place(req, best);
    placement[g.index()] = best;
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
