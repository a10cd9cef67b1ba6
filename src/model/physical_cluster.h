// The physical cluster: topology + per-node capacities + per-link
// properties (the paper's graph c = (C, E_c) with proc/mem/stor and bw/lat).
//
// A cluster is two parts.  The *fabric* (model::Fabric) is the graph, the
// node roles, the host list and the graph's BFS forest: it never changes
// once built and is shared, through a std::shared_ptr, by every copy of the
// cluster and every cluster built over it with with_resources() (residual
// views, scarred copies, coarse levels).  The *resources* (capacities, link
// properties and failure domains) belong to each cluster value.  So a view
// of a fixed fabric copies two resource vectors instead of a graph.
//
// Mutable residual bookkeeping during mapping lives in core::ResidualState
// so that a cluster can be shared by many concurrent mapping runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/forest.h"
#include "graph/graph.h"
#include "model/resources.h"
#include "model/topology.h"

namespace hmn::model {

/// Optional failure-domain annotation: for every node, the id of the
/// network blast group (the switch whose loss takes this node down, PR 5's
/// correlated failures) and of the power domain (the PDU feeding it, which
/// may span racks).  `kNone` marks nodes outside any domain (switches, or
/// clusters built before annotation).  Mappers use this to spread replica
/// groups anti-affinely; the annotation carries no behavior by itself.
struct FailureDomains {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  std::vector<std::uint32_t> blast_domain;  // per node; kNone = unassigned
  std::vector<std::uint32_t> power_domain;  // per node; kNone = unassigned

  [[nodiscard]] bool empty() const {
    return blast_domain.empty() && power_domain.empty();
  }
};

/// The immutable part of a cluster: the topology, its host list and the
/// graph's BFS forest.  Clusters hold it through a
/// std::shared_ptr<const Fabric>, so every copy of a cluster and every
/// cluster built over it (PhysicalCluster::with_resources) reads the same
/// graph object, adjacency order and host order.
class Fabric {
 public:
  explicit Fabric(topology::Topology topo);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] const topology::Topology& topology() const { return topo_; }
  [[nodiscard]] const graph::Graph& graph() const { return topo_.graph; }
  /// Host nodes in ascending NodeId order.
  [[nodiscard]] const std::vector<NodeId>& hosts() const { return hosts_; }

  /// The graph's BFS forest (graph::Forest::build), or nullptr when the
  /// graph has a cycle.  Built on the first call, under std::call_once, so
  /// concurrent callers build it once and only fabrics that route pay for
  /// it.
  [[nodiscard]] const graph::Forest* forest() const;

  /// True when `other` has the same node roles and the same edges in the
  /// same order, hence the same adjacency lists: the structure everything
  /// cached per fabric depends on.  O(V + E).
  [[nodiscard]] bool same_structure(const Fabric& other) const;

 private:
  topology::Topology topo_;
  std::vector<NodeId> hosts_;
  mutable std::once_flag forest_once_;
  mutable graph::Forest forest_;
  mutable bool is_forest_ = false;
};

class PhysicalCluster {
 public:
  /// An empty cluster.  Allocates nothing: it points at one shared empty
  /// fabric without owning it.
  PhysicalCluster();

  /// Builds a cluster over `topo`.  `host_caps` gives the capacity of each
  /// host node in topology host order (host_caps.size() must equal
  /// topo.host_count()); switches get zero capacity.  Every link receives
  /// `uniform_link` (the paper's clusters use uniform 1 Gbps / 5 ms links).
  static PhysicalCluster build(topology::Topology topo,
                               std::vector<HostCapacity> host_caps,
                               LinkProps uniform_link);

  /// As above but with per-link properties, indexed by EdgeId.
  static PhysicalCluster build(topology::Topology topo,
                               std::vector<HostCapacity> host_caps,
                               std::vector<LinkProps> link_props);

  /// A cluster over `base`'s fabric with its own resources: `node_caps`
  /// indexed by NodeId (switch entries zero) and `link_props` indexed by
  /// EdgeId.  No failure domains.  Throws std::invalid_argument unless the
  /// sizes equal base's node and edge counts.
  static PhysicalCluster with_resources(const PhysicalCluster& base,
                                        std::vector<HostCapacity> node_caps,
                                        std::vector<LinkProps> link_props);

  /// Deducts the VMM's own consumption from every host (Section 3.1:
  /// "the amount of it used by the VMM is deducted from that resource
  /// availability prior the mapping").
  void deduct_vmm_overhead(const HostCapacity& overhead);

  /// Marks a node as failed: capacity drops to zero and every incident
  /// link becomes unusable (zero bandwidth, infinite latency), so every
  /// subsequent mapping, extension, and routing pass naturally avoids it.
  /// The topology itself is unchanged (ids remain stable).
  void fail_node(NodeId node);

  /// Marks a single physical link as failed (zero bandwidth, infinite
  /// latency); both endpoints keep their capacity.
  void fail_link(EdgeId edge);

  /// The shared immutable part.  Two clusters with the same pointer have
  /// the same graph, roles and hosts.
  [[nodiscard]] const std::shared_ptr<const Fabric>& fabric() const {
    return fabric_;
  }
  [[nodiscard]] const graph::Graph& graph() const { return fabric_->graph(); }
  [[nodiscard]] const topology::Topology& topology() const {
    return fabric_->topology();
  }
  /// The fabric's forest; nullptr when the graph has a cycle.
  [[nodiscard]] const graph::Forest* forest() const {
    return fabric_->forest();
  }

  [[nodiscard]] std::size_t node_count() const {
    return graph().node_count();
  }
  [[nodiscard]] std::size_t link_count() const {
    return graph().edge_count();
  }
  [[nodiscard]] std::size_t host_count() const { return hosts().size(); }

  /// Host nodes in ascending NodeId order.
  [[nodiscard]] const std::vector<NodeId>& hosts() const {
    return fabric_->hosts();
  }
  [[nodiscard]] bool is_host(NodeId n) const {
    return fabric_->topology().is_host(n);
  }

  /// Capacity of a node (zero for switches).
  [[nodiscard]] const HostCapacity& capacity(NodeId n) const {
    return capacity_[n.index()];
  }

  [[nodiscard]] const LinkProps& link(EdgeId e) const {
    return links_[e.index()];
  }

  /// Sum of host processing capacity — used by load metrics.
  [[nodiscard]] double total_proc_mips() const;

  /// Installs the failure-domain annotation (vectors must be empty or sized
  /// node_count()).  Copied through TenancyManager::residual_view so the
  /// replica-spread mapper sees domains on every residual snapshot.
  void set_failure_domains(FailureDomains domains);
  [[nodiscard]] const FailureDomains& failure_domains() const {
    return domains_;
  }

 private:
  std::shared_ptr<const Fabric> fabric_;  // null only once moved from
  std::vector<HostCapacity> capacity_;    // per node
  std::vector<LinkProps> links_;          // per edge
  FailureDomains domains_;  // empty unless annotated
};

}  // namespace hmn::model
