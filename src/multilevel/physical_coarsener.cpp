#include "multilevel/physical_coarsener.h"

#include <utility>

namespace hmn::multilevel {

PhysicalHierarchy build_hierarchy(const model::PhysicalCluster& base,
                                  const PhysicalCoarsenOptions& opts) {
  PhysicalHierarchy h;
  h.base_nodes = base.graph().node_count();
  h.base_edges = base.graph().edge_count();
  h.base_hosts = base.host_count();

  model::PhysicalCluster owned;  // materialized intermediate levels
  const model::PhysicalCluster* cur = &base;
  constexpr std::size_t kMaxLevels = 8;
  while (cur->graph().node_count() > opts.target_nodes &&
         h.contractions.size() < kMaxLevels) {
    topology::Contraction c = h.contractions.empty()
                                  ? topology::contract_rack_units(*cur)
                                  : topology::contract_heavy_matching(*cur);
    if (c.group_count() >= cur->graph().node_count()) {
      // Rack units did not shrink (host-only fabric): fall through to
      // matching; if that cannot shrink either (edgeless graph), stop.
      c = topology::contract_heavy_matching(*cur);
      if (c.group_count() >= cur->graph().node_count()) break;
    }
    owned = topology::coarse_cluster(*cur, c);
    cur = &owned;
    h.contractions.push_back(std::move(c));
  }
  return h;
}

std::vector<model::PhysicalCluster> materialize_levels(
    const model::PhysicalCluster& base, const PhysicalHierarchy& h) {
  std::vector<model::PhysicalCluster> out;
  out.reserve(h.contractions.size());
  const model::PhysicalCluster* cur = &base;
  for (const topology::Contraction& c : h.contractions) {
    out.push_back(topology::coarse_cluster(*cur, c));
    cur = &out.back();
  }
  return out;
}

}  // namespace hmn::multilevel
