#include "model/physical_cluster.h"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace hmn::model {
namespace {

/// The fabric every default-constructed cluster points at.
const Fabric& empty_fabric() {
  static const Fabric fabric{topology::Topology{}};
  return fabric;
}

}  // namespace

Fabric::Fabric(topology::Topology topo)
    : topo_(std::move(topo)), hosts_(topo_.host_nodes()) {}

const graph::Forest* Fabric::forest() const {
  std::call_once(forest_once_, [this] { is_forest_ = forest_.build(graph()); });
  return is_forest_ ? &forest_ : nullptr;
}

bool Fabric::same_structure(const Fabric& other) const {
  const graph::Graph& a = graph();
  const graph::Graph& b = other.graph();
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count() ||
      topo_.role != other.topo_.role) {
    return false;
  }
  // graph::Graph grows only by add_edge, so equal edge lists in equal
  // order give equal adjacency lists.
  for (std::size_t e = 0; e < a.edge_count(); ++e) {
    const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
    if (a.endpoints(id).a != b.endpoints(id).a ||
        a.endpoints(id).b != b.endpoints(id).b) {
      return false;
    }
  }
  return true;
}

// Non-owning: the aliasing constructor with an empty owner keeps no
// reference count, so copying an empty cluster touches no shared state.
PhysicalCluster::PhysicalCluster()
    : fabric_(std::shared_ptr<const Fabric>(), &empty_fabric()) {}

PhysicalCluster PhysicalCluster::build(topology::Topology topo,
                                       std::vector<HostCapacity> host_caps,
                                       LinkProps uniform_link) {
  const std::size_t edges = topo.graph.edge_count();
  return build(std::move(topo), std::move(host_caps),
               std::vector<LinkProps>(edges, uniform_link));
}

PhysicalCluster PhysicalCluster::build(topology::Topology topo,
                                       std::vector<HostCapacity> host_caps,
                                       std::vector<LinkProps> link_props) {
  if (host_caps.size() != topo.host_count()) {
    throw std::invalid_argument(
        "PhysicalCluster::build: one capacity per host node required");
  }
  if (link_props.size() != topo.graph.edge_count()) {
    throw std::invalid_argument(
        "PhysicalCluster::build: one LinkProps per edge required");
  }

  PhysicalCluster c;
  c.fabric_ = std::make_shared<const Fabric>(std::move(topo));
  const std::vector<NodeId>& hosts = c.hosts();
  c.capacity_.assign(c.node_count(), HostCapacity{});
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    c.capacity_[hosts[i].index()] = host_caps[i];
  }
  c.links_ = std::move(link_props);
  return c;
}

PhysicalCluster PhysicalCluster::with_resources(
    const PhysicalCluster& base, std::vector<HostCapacity> node_caps,
    std::vector<LinkProps> link_props) {
  if (node_caps.size() != base.node_count()) {
    throw std::invalid_argument(
        "PhysicalCluster::with_resources: one capacity per node required");
  }
  if (link_props.size() != base.link_count()) {
    throw std::invalid_argument(
        "PhysicalCluster::with_resources: one LinkProps per edge required");
  }
  PhysicalCluster c;
  c.fabric_ = base.fabric_;
  c.capacity_ = std::move(node_caps);
  c.links_ = std::move(link_props);
  return c;
}

void PhysicalCluster::deduct_vmm_overhead(const HostCapacity& overhead) {
  for (const NodeId h : hosts()) {
    capacity_[h.index()] = capacity_[h.index()].minus(overhead);
  }
}

void PhysicalCluster::fail_node(NodeId node) {
  capacity_[node.index()] = HostCapacity{};
  for (const graph::Adjacency& adj : graph().neighbors(node)) {
    links_[adj.edge.index()].bandwidth_mbps = 0.0;
    links_[adj.edge.index()].latency_ms =
        std::numeric_limits<double>::infinity();
  }
}

void PhysicalCluster::fail_link(EdgeId edge) {
  links_[edge.index()].bandwidth_mbps = 0.0;
  links_[edge.index()].latency_ms = std::numeric_limits<double>::infinity();
}

void PhysicalCluster::set_failure_domains(FailureDomains domains) {
  const std::size_t n = node_count();
  if ((!domains.blast_domain.empty() && domains.blast_domain.size() != n) ||
      (!domains.power_domain.empty() && domains.power_domain.size() != n)) {
    throw std::invalid_argument(
        "set_failure_domains: vectors must be empty or sized node_count()");
  }
  domains_ = std::move(domains);
}

double PhysicalCluster::total_proc_mips() const {
  double sum = 0.0;
  for (const NodeId h : hosts()) sum += capacity_[h.index()].proc_mips;
  return sum;
}

}  // namespace hmn::model
