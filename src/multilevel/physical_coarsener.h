// Physical-fabric coarsening for the multilevel pipeline.
//
// Generalizes topology::partition_cluster's one-shot rack-unit contraction
// into a recursive pyramid: level 0 is the real fabric; level 1 contracts
// rack units (a switch plus its attached hosts); every further level pairs
// nodes by heavy-edge matching until the coarsest level is small enough to
// solve directly.  The hierarchy stores the structure: the
// topology::Contraction per level and each coarse level's fabric.
// Capacities are re-aggregated per map() call from whatever cluster the
// caller passes in — a TenancyManager hands the mapper a fresh residual
// view per admission, so the structure is cached once per fabric while
// residual capacities, headroom bias, and failed nodes/links flow through
// the resource pass (materialize_levels) automatically.
#pragma once

#include <cstddef>
#include <memory>
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
  /// levels[i] is the cluster at level i+1 as build_hierarchy built it;
  /// materialize_levels reuses its fabric and replaces its resources.
  std::vector<model::PhysicalCluster> levels;
  /// The fabric of the cluster the hierarchy was built over.
  std::shared_ptr<const model::Fabric> base;

  [[nodiscard]] std::size_t level_count() const {
    return contractions.size() + 1;
  }
  /// True when `cluster` has the base's structure, so the contractions are
  /// valid groupings of its graph: it shares the base fabric (copies,
  /// scarred copies and TenancyManager residual views do), or its fabric
  /// has the same roles and the same edges in the same order (a
  /// partition_cluster run again over one fabric gives such shards).  The
  /// second test is O(V + E) and runs only when the fabric is not shared.
  [[nodiscard]] bool compatible(const model::PhysicalCluster& cluster) const {
    return cluster.fabric() == base ||
           (base != nullptr && cluster.fabric()->same_structure(*base));
  }
};

/// Builds the contraction pyramid over `base`.  Level 1 uses rack units
/// when they shrink the graph (switched fabrics); host-only fabrics fall
/// through to heavy-edge matching.  Deterministic in the fabric alone.
[[nodiscard]] PhysicalHierarchy build_hierarchy(
    const model::PhysicalCluster& base, const PhysicalCoarsenOptions& opts);

/// Materializes the coarse clusters for `base`'s *current* capacities:
/// out[i] is the cluster at level i+1 (out.size() == contractions.size()),
/// over the fabric of h.levels[i].  Only the resource pass runs
/// (topology::coarse_resources): O(nodes + edges) total, the per-admission
/// cost of reusing a hierarchy.  Throws std::invalid_argument unless
/// h.compatible(base).
[[nodiscard]] std::vector<model::PhysicalCluster> materialize_levels(
    const model::PhysicalCluster& base, const PhysicalHierarchy& h);

}  // namespace hmn::multilevel
