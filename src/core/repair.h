// Mapping repair after substrate failures.
//
// Long-running emulation experiments lose hosts and links (the paper's
// motivation for emulation is precisely that real testbeds misbehave);
// when an element fails, re-running HMN from scratch would re-place every
// VM.  `repair_mapping` instead performs the minimal surgery:
//
//   * guests on a failed host are evicted and re-placed on surviving
//     hosts with the Hosting stage's single-guest affinity rule
//     (core::affinity_host, as in the incremental extension);
//   * virtual links whose physical path traverses a failed element — plus
//     all links of evicted guests — are re-routed with the Networking
//     stage's link router (core::LinkRouter, the modified A*Prune) over
//     the surviving fabric;
//   * every other guest and path is untouched.
//
// A failed *link* alone never evicts a guest: only its transit paths are
// re-routed.  With `allow_dark_links`, a *best-effort* link that cannot be
// re-routed is left with an empty ("dark") path instead of failing the
// whole repair — the degraded-tenancy mode the orchestrator's healer
// builds on.  Dark links reserve no bandwidth and are re-attempted by any
// later repair over the same mapping (an empty inter-host path counts as
// damage).  A virtual link whose demand is flagged `critical` never goes
// dark: if it cannot be re-routed the repair fails with kNetworkingFailed
// even under allow_dark_links, and the caller must evict or fully remap.
//
// The repaired mapping satisfies all of Eqs. 1-9 *and* avoids every failed
// element entirely (no guest on a dead host, no path through a dead node
// or edge).
#pragma once

#include <vector>

#include "core/map_result.h"
#include "core/mapping.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"

namespace hmn::core {

/// The set of currently failed substrate elements.  An edge incident to a
/// failed node is implicitly dead as well.
struct FailureSet {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> links;

  [[nodiscard]] bool empty() const { return nodes.empty() && links.empty(); }
};

struct RepairOptions {
  FailureSet failed;
  /// When true, a surviving *best-effort* inter-host link whose path
  /// cannot be re-routed is left dark (empty path, no bandwidth reserved)
  /// and reported in RepairStats::dark_links instead of failing the repair
  /// with kNetworkingFailed.  Links whose demand is `critical`, and all
  /// hosting failures, still fail the repair.
  bool allow_dark_links = false;
};

struct RepairStats {
  std::size_t guests_moved = 0;
  std::size_t links_rerouted = 0;
  /// Inter-host links left unrouted (only with allow_dark_links).
  std::vector<VirtLinkId> dark_links;
};

/// Repairs `mapping` after the elements in `opts.failed` die.  Fails with
/// kHostingFailed / kNetworkingFailed when the surviving capacity cannot
/// absorb the refugees (callers may then fall back to a full remap on the
/// reduced cluster, or evict the tenant).  `stats`, when non-null,
/// receives the surgery size.
[[nodiscard]] MapOutcome repair_mapping(const model::PhysicalCluster& cluster,
                                        const model::VirtualEnvironment& venv,
                                        const Mapping& mapping,
                                        const RepairOptions& opts,
                                        RepairStats* stats = nullptr);

/// Single-host convenience overload (the PR-1 interface).
[[nodiscard]] MapOutcome repair_mapping(const model::PhysicalCluster& cluster,
                                        const model::VirtualEnvironment& venv,
                                        const Mapping& mapping,
                                        NodeId failed_host,
                                        RepairStats* stats = nullptr);

/// True when `mapping` uses `host` in no way: no guest placed on it and no
/// link path traversing it.  The post-condition of a successful repair.
[[nodiscard]] bool mapping_avoids_node(const model::PhysicalCluster& cluster,
                                       const Mapping& mapping, NodeId host);

/// True when no link path of `mapping` traverses physical edge `edge`.
[[nodiscard]] bool mapping_avoids_edge(const Mapping& mapping, EdgeId edge);

}  // namespace hmn::core
