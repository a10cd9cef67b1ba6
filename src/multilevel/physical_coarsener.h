// Physical-fabric coarsening for the multilevel pipeline.
//
// Generalizes topology::partition_cluster's one-shot rack-unit contraction
// into a recursive pyramid: level 0 is the real fabric; level 1 contracts
// rack units (a switch plus its attached hosts); every further level pairs
// nodes by heavy-edge matching until the coarsest level is small enough to
// solve directly.  The hierarchy stores only the *structural* tables (the
// topology::Contraction per level); capacities are re-aggregated per map()
// call from whatever cluster the caller passes in — a TenancyManager hands
// the mapper a fresh residual view per admission, so the structure is
// cached once per fabric while residual capacities, headroom bias, and
// failed nodes/links flow through automatically.
#pragma once

#include <cstddef>
#include <vector>

#include "model/physical_cluster.h"
#include "topology/contraction.h"

namespace hmn::multilevel {

struct PhysicalCoarsenOptions {
  /// Stop contracting once a level has this few nodes (or after 8
  /// levels); the coarse solve runs the full HMN stages there, so this
  /// bounds its cost.
  std::size_t target_nodes = 96;
};

/// The structural pyramid.  contractions[i] maps level-i nodes onto
/// level-(i+1) groups; level 0 is the base cluster the hierarchy was built
/// over.  Coarse node i at level k+1 *is* group i of contractions[k].
struct PhysicalHierarchy {
  std::vector<topology::Contraction> contractions;
  std::size_t base_nodes = 0;
  std::size_t base_edges = 0;
  std::size_t base_hosts = 0;

  [[nodiscard]] std::size_t level_count() const {
    return contractions.size() + 1;
  }
  /// Structural-compatibility guard: a cluster with the same node, edge and
  /// host counts as the build-time fabric can reuse this hierarchy (the
  /// tenancy layer's residual views keep the topology and only scale
  /// capacities).  Per-level validation catches any residual mismatch.
  [[nodiscard]] bool compatible(const model::PhysicalCluster& cluster) const {
    return cluster.graph().node_count() == base_nodes &&
           cluster.graph().edge_count() == base_edges &&
           cluster.host_count() == base_hosts;
  }
};

/// Builds the contraction pyramid over `base`.  Level 1 uses rack units
/// when they shrink the graph (switched fabrics); host-only fabrics fall
/// through to heavy-edge matching.  Deterministic in the fabric alone.
[[nodiscard]] PhysicalHierarchy build_hierarchy(
    const model::PhysicalCluster& base, const PhysicalCoarsenOptions& opts);

/// Materializes the coarse clusters for `base`'s *current* capacities:
/// out[i] is the cluster at level i+1 (out.size() == contractions.size()).
/// O(nodes + edges) total — the per-admission cost of reusing a hierarchy.
[[nodiscard]] std::vector<model::PhysicalCluster> materialize_levels(
    const model::PhysicalCluster& base, const PhysicalHierarchy& h);

}  // namespace hmn::multilevel
