// The mapping value: where each guest runs and which physical path carries
// each virtual link.  This is the object every mapper produces and the
// validator checks against the paper's constraints (Eqs. 1-9).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "model/physical_cluster.h"
#include "model/virtual_environment.h"
#include "util/fnv1a.h"

namespace hmn::core {

struct Mapping {
  /// host_of[g] = cluster node hosting guest g.  All entries valid host
  /// nodes in a complete mapping.
  std::vector<NodeId> guest_host;

  /// path_of[l] = physical edge sequence carrying virtual link l, starting
  /// at the source guest's host.  Empty when both endpoints share a host
  /// (intra-host links cost nothing; bw = inf, lat = 0 per Section 3.2).
  std::vector<graph::Path> link_paths;

  [[nodiscard]] NodeId host_of(GuestId g) const {
    return guest_host[g.index()];
  }
  [[nodiscard]] const graph::Path& path_of(VirtLinkId l) const {
    return link_paths[l.index()];
  }

  /// True when a virtual link's endpoints are co-located.
  [[nodiscard]] bool colocated(const model::VirtualEnvironment& venv,
                               VirtLinkId l) const {
    const auto ep = venv.endpoints(l);
    return host_of(ep.src) == host_of(ep.dst);
  }

  /// Guests grouped per cluster node (the paper's sets G_i).
  [[nodiscard]] std::vector<std::vector<GuestId>> guests_per_node(
      std::size_t node_count) const {
    std::vector<std::vector<GuestId>> out(node_count);
    for (std::size_t g = 0; g < guest_host.size(); ++g) {
      const NodeId h = guest_host[g];
      if (h.valid()) {
        out[h.index()].push_back(GuestId{static_cast<GuestId::underlying_type>(g)});
      }
    }
    return out;
  }

  /// Number of virtual links whose endpoints land on different hosts —
  /// the links the Networking stage actually has to route (Figure 1's
  /// x-axis).
  [[nodiscard]] std::size_t inter_host_link_count(
      const model::VirtualEnvironment& venv) const {
    std::size_t n = 0;
    for (std::size_t l = 0; l < link_paths.size(); ++l) {
      if (!colocated(venv, VirtLinkId{static_cast<VirtLinkId::underlying_type>(l)})) ++n;
    }
    return n;
  }
};

/// FNV-1a over every guest's host, in guest order: the placement hash
/// each admission decision logs.  The orchestrator hashes a tenant's own
/// mapping; the sharded router hashes it translated to parent-fabric host
/// ids, so sharded and flat runs hash comparably.
[[nodiscard]] inline std::uint64_t placement_hash(
    const std::vector<NodeId>& guest_host) {
  std::uint64_t h = util::kFnv1aBasis;
  for (const NodeId host : guest_host) h = util::fnv1a_mix(h, host.value());
  return h;
}

/// FNV-1a over the complete mapping value (the placement hash, then every
/// path's length and edges).  Two mappings are byte-identical iff their
/// fingerprints match — the determinism gates (bench_multilevel, the
/// regression harness) compare these across repeated runs.
[[nodiscard]] inline std::uint64_t fingerprint(const Mapping& m) {
  std::uint64_t h = placement_hash(m.guest_host);
  for (const graph::Path& path : m.link_paths) {
    h = util::fnv1a_mix(h, path.size());
    for (const EdgeId e : path) h = util::fnv1a_mix(h, e.value());
  }
  return h;
}

}  // namespace hmn::core
