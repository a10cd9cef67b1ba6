#include "multilevel/physical_coarsener.h"

#include <stdexcept>
#include <utility>

namespace hmn::multilevel {

PhysicalHierarchy build_hierarchy(const model::PhysicalCluster& base,
                                  const PhysicalCoarsenOptions& opts) {
  PhysicalHierarchy h;
  h.base = base.fabric();
  constexpr std::size_t kMaxLevels = 8;
  h.levels.reserve(kMaxLevels);  // `cur` points into it
  const model::PhysicalCluster* cur = &base;
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
    h.levels.push_back(topology::coarse_cluster(*cur, c));
    cur = &h.levels.back();
    h.contractions.push_back(std::move(c));
  }
  return h;
}

std::vector<model::PhysicalCluster> materialize_levels(
    const model::PhysicalCluster& base, const PhysicalHierarchy& h) {
  if (!h.compatible(base)) {
    throw std::invalid_argument(
        "materialize_levels: the cluster does not have the hierarchy's "
        "structure");
  }
  std::vector<model::PhysicalCluster> out;
  out.reserve(h.contractions.size());
  const model::PhysicalCluster* cur = &base;
  for (std::size_t i = 0; i < h.contractions.size(); ++i) {
    out.push_back(
        topology::coarse_resources(h.levels[i], *cur, h.contractions[i]));
    cur = &out.back();
  }
  return out;
}

}  // namespace hmn::multilevel
