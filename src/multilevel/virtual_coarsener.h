// Virtual-environment coarsening for the multilevel pipeline.
//
// Following the heavy-clique coarsening idea from the VNE literature (see
// PAPERS.md), guests joined by heavy-bandwidth links are merged into
// super-guests: requirements are summed, links between two merged cliques
// are aggregated into one coarse link (bandwidth summed, latency bound
// minimized — the strictest member governs the clique), and links internal
// to a clique disappear (co-located endpoints cost nothing, Section 3.2 of
// the paper).  Each level records an exact merge history, so a coarse
// placement projects back down *losslessly*: every member lands on its
// super-guest's host and every member link inherits its coarse link's path
// (or an empty path when its endpoints merged).
//
// Everything is deterministic: links are processed in (bandwidth desc, id
// asc) order, groups are renumbered by ascending lowest member id, and no
// randomness is consumed.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.h"
#include "model/virtual_environment.h"

namespace hmn::multilevel {

/// Maximum number of *base* guests a super-guest may absorb; keeps the
/// coarse solve from collapsing the whole tenant into one unsplittable
/// blob that no single coarse node could ever balance.
inline constexpr std::size_t kMaxMembers = 8;

struct VirtualCoarsenOptions {
  /// Stop coarsening once the coarse environment has this few guests (or
  /// after 8 rounds).
  std::size_t target_guests = 12;
};

/// One coarsening step: a finer venv (implicit — the one the step was built
/// over) merged into `coarse`.
struct VirtualLevel {
  model::VirtualEnvironment coarse;
  /// finer guest -> coarse guest (total).
  std::vector<GuestId> coarse_of_guest;
  /// coarse guest -> finer guests, ascending (the merge history).
  std::vector<std::vector<GuestId>> members;
  /// finer link -> coarse link; invalid() when the endpoints merged (the
  /// link became internal and routes inside a host).
  std::vector<VirtLinkId> coarse_of_link;
};

/// The merge-history stack: levels[0] was built over the input venv,
/// levels.back().coarse is the coarsest environment.  Empty when the input
/// was already at or below the target size (or nothing could merge).
struct VirtualHierarchy {
  std::vector<VirtualLevel> levels;

  [[nodiscard]] bool empty() const { return levels.empty(); }
  [[nodiscard]] const model::VirtualEnvironment& coarsest(
      const model::VirtualEnvironment& base) const {
    return levels.empty() ? base : levels.back().coarse;
  }
};

[[nodiscard]] VirtualHierarchy coarsen_virtual(
    const model::VirtualEnvironment& base, const VirtualCoarsenOptions& opts);

/// Exact uncoarsening of a placement through one level: every finer guest
/// lands on its super-guest's node.
[[nodiscard]] std::vector<NodeId> project_guest_host(
    const VirtualLevel& level, const std::vector<NodeId>& coarse_guest_host);

/// Exact uncoarsening of routed paths through one level: a crossing link
/// copies its coarse link's path; an internal link (endpoints merged, hence
/// co-located) gets the empty path.
[[nodiscard]] std::vector<graph::Path> project_link_paths(
    const VirtualLevel& level, const std::vector<graph::Path>& coarse_paths);

}  // namespace hmn::multilevel
