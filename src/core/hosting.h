// Stage 1 — Hosting (Section 4.1): preliminary assignment of guests to
// hosts by network affinity.
//
// Virtual links are processed in descending bandwidth order; both endpoints
// of a high-bandwidth link are co-located on the host with the most
// available CPU whenever memory and storage allow, reducing physical-link
// usage.  The paper re-sorts its host list by residual CPU after every
// assignment and takes the first host that fits; each pick here is that
// host, found in one pass over the hosts: the most residual CPU among
// those that fit, the lowest NodeId on ties.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/map_result.h"
#include "core/residual.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"

namespace hmn::core {

/// Order in which virtual links are considered.  The paper uses descending
/// bandwidth (so heavy links are co-located first); the alternatives feed
/// the ordering ablation bench (E6 in DESIGN.md).
enum class LinkOrder : std::uint8_t {
  kBandwidthDescending,  // the paper's choice
  kBandwidthAscending,
  kRandom,
};

/// How guests are assigned to hosts.
enum class HostingPolicy : std::uint8_t {
  /// The paper's rule (Section 4.1): co-locate the endpoints of heavy
  /// virtual links.  Besides reducing physical-link use, affinity is what
  /// lets HMN map virtual links whose demand *exceeds* any physical
  /// link's capacity — co-located endpoints communicate inside the host
  /// (bw = inf), so such links never touch the fabric (Section 5.2's
  /// argument for hosting by network affinity).
  kAffinity,
  /// Ablation: ignore links entirely; place each guest (descending vproc)
  /// on the most-available-CPU host that fits.  Balances at least as well
  /// as affinity hosting but strands heavy links on the fabric.
  kBalanceOnly,
};

struct HostingOptions {
  HostingPolicy policy = HostingPolicy::kAffinity;
  LinkOrder order = LinkOrder::kBandwidthDescending;
  /// Seed for LinkOrder::kRandom (ignored otherwise).
  std::uint64_t shuffle_seed = 0;
};

/// Result of the Hosting stage: the preliminary guest placement.
struct HostingResult {
  bool ok = false;
  std::string detail;                // failure explanation when !ok
  std::vector<NodeId> guest_host;    // complete placement when ok
};

/// Runs the Hosting stage over state.hosts(), mutating `state` to reflect
/// placements.
/// On failure (`some guest fits on no host`, Section 4.1) the state is left
/// with the partial placements applied; callers discard it.
[[nodiscard]] HostingResult run_hosting(const model::VirtualEnvironment& venv,
                                        ResidualState& state,
                                        const HostingOptions& opts = {});

/// The hard constraint an infeasibility certificate found binding.
enum class FitConstraint : std::uint8_t {
  kMemory,   // Eq. 2
  kStorage,  // Eq. 3
  /// One guest, on no host both: each host fails Eq. 2 or Eq. 3.  With
  /// no guest named: no placement of all the guests at once meets both.
  kMemoryOrStorage,
};

/// A proof from necessary conditions that no placement of a virtual
/// environment satisfies Eqs. 2-3 on a cluster.
struct InfeasibilityCertificate {
  FitConstraint constraint = FitConstraint::kMemory;
  /// The guest that fits on no host; invalid() when the environment's
  /// total demand exceeds the hosts' total capacity, or when the guests
  /// fit one at a time but no placement packs all of them.
  GuestId guest = GuestId::invalid();
  std::string detail;  // names the equations and the guest or the totals
};

/// Checks Eqs. 2-3 on `cluster` as given (for a tenant, the residual view
/// its mapper receives), in three steps: the guests' total memory and
/// storage do not exceed the hosts', every guest fits on some host with
/// the host empty, and a depth-first search over placements of all the
/// guests, capped at a fixed number of placements, finds one.  Returns a
/// certificate when a step fails.  nullopt means that a placement exists
/// or that the search gave up at its cap.  Never fires on an instance that
/// sequential fits()/place() calls can pack.  A tenant with a negative (or
/// NaN) demand gets no certificate: a negative demand frees room for the
/// guests placed after it, which none of the three steps accounts for.
[[nodiscard]] std::optional<InfeasibilityCertificate> certify_infeasible(
    const model::PhysicalCluster& cluster,
    const model::VirtualEnvironment& venv);

/// The heaviest-bandwidth virtual link from `guest` to an already placed
/// guest (one with a valid `guest_host` entry): its bandwidth and the
/// neighbour's host.  The first such link in venv.links_of order wins ties;
/// {-1, invalid} when no neighbour is placed.
struct PlacedNeighbor {
  double bandwidth_mbps = -1.0;
  NodeId host = NodeId::invalid();
};
[[nodiscard]] PlacedNeighbor heaviest_placed_neighbor(
    const model::VirtualEnvironment& venv,
    const std::vector<NodeId>& guest_host, GuestId guest);

/// The Hosting stage's affinity rule for one guest placed alone next to an
/// existing placement (mapping growth and repair): the host of its
/// heaviest-bandwidth placed neighbour when that host is up and fits;
/// otherwise the up host of state.hosts() with the most residual CPU that
/// fits, first in NodeId order on ties.  `down`, when non-null, is indexed by
/// NodeId and flags dead nodes.  Returns invalid() when no up host fits.
[[nodiscard]] NodeId affinity_host(const model::VirtualEnvironment& venv,
                                   const ResidualState& state,
                                   const std::vector<NodeId>& guest_host,
                                   GuestId guest,
                                   const std::vector<bool>* down = nullptr);

/// The link processing order used by Hosting/Networking for the given
/// policy (exposed for tests and for the Networking stage to share).
[[nodiscard]] std::vector<VirtLinkId> ordered_links(
    const model::VirtualEnvironment& venv, LinkOrder order,
    std::uint64_t shuffle_seed);

}  // namespace hmn::core
