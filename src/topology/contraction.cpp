#include "topology/contraction.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

namespace hmn::topology {
namespace {

NodeId nid(std::size_t i) {
  return NodeId{static_cast<NodeId::underlying_type>(i)};
}

EdgeId eid(std::size_t i) {
  return EdgeId{static_cast<EdgeId::underlying_type>(i)};
}

}  // namespace

Contraction make_contraction(const model::PhysicalCluster& fine,
                             std::vector<std::size_t> group_of_node,
                             std::size_t group_count) {
  const graph::Graph& g = fine.graph();
  Contraction c;
  c.group_of_node = std::move(group_of_node);

  c.members.resize(group_count);
  for (std::size_t i = 0; i < c.group_of_node.size(); ++i) {
    c.members[c.group_of_node[i]].push_back(nid(i));
  }

  c.group_proc_mips.assign(group_count, 0.0);
  c.group_hosts.assign(group_count, 0);
  for (const NodeId h : fine.hosts()) {
    const std::size_t grp = c.group_of_node[h.index()];
    c.group_proc_mips[grp] += fine.capacity(h).proc_mips;
    c.group_hosts[grp] += 1;
  }

  // Coarse edges keyed by the (lower, upper) group pair; std::map iteration
  // gives the canonical (a, b)-ascending numbering.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> edge_index;
  c.coarse_edge_of.assign(g.edge_count(), Contraction::npos);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto ep = g.endpoints(eid(e));
    const std::size_t a = c.group_of_node[ep.a.index()];
    const std::size_t b = c.group_of_node[ep.b.index()];
    if (a == b) continue;
    edge_index.emplace(std::minmax(a, b), 0);
  }
  c.coarse_edges.reserve(edge_index.size());
  for (auto& [pair, index] : edge_index) {
    index = c.coarse_edges.size();
    Contraction::CoarseEdge ce;
    ce.a = pair.first;
    ce.b = pair.second;
    c.coarse_edges.push_back(std::move(ce));
  }
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto ep = g.endpoints(eid(e));
    const std::size_t a = c.group_of_node[ep.a.index()];
    const std::size_t b = c.group_of_node[ep.b.index()];
    if (a == b) continue;
    const std::size_t index = edge_index.at(std::minmax(a, b));
    c.coarse_edge_of[e] = index;
    c.coarse_edges[index].fine_edges.push_back(eid(e));
  }

  c.adjacency.resize(group_count);
  for (const Contraction::CoarseEdge& ce : c.coarse_edges) {
    c.adjacency[ce.a].push_back(ce.b);
    c.adjacency[ce.b].push_back(ce.a);
  }
  for (auto& adj : c.adjacency) std::sort(adj.begin(), adj.end());
  return c;
}

Contraction contract_rack_units(const model::PhysicalCluster& fine) {
  const graph::Graph& g = fine.graph();
  const std::size_t n = g.node_count();
  constexpr std::size_t kUnassigned = Contraction::npos;
  std::vector<std::size_t> group(n, kUnassigned);
  std::size_t groups = 0;

  // Switches seed groups in ascending node order; each host follows its
  // lowest-id adjacent switch; switchless hosts become their own group.
  // This numbering is the partitioner's historical one, so refactoring it
  // here keeps partition_cluster byte-identical.
  for (std::size_t i = 0; i < n; ++i) {
    if (!fine.is_host(nid(i))) group[i] = groups++;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!fine.is_host(nid(i))) continue;
    std::size_t best_switch = kUnassigned;
    for (const graph::Adjacency& adj : g.neighbors(nid(i))) {
      const std::size_t v = adj.neighbor.index();
      if (!fine.is_host(adj.neighbor) && v < best_switch) best_switch = v;
    }
    group[i] = best_switch != kUnassigned ? group[best_switch] : groups++;
  }
  return make_contraction(fine, std::move(group), groups);
}

Contraction contract_heavy_matching(const model::PhysicalCluster& fine) {
  const graph::Graph& g = fine.graph();
  const std::size_t n = g.node_count();
  constexpr std::size_t kUnmatched = Contraction::npos;
  std::vector<std::size_t> mate(n, kUnmatched);

  // Aggregate parallel-edge bandwidth per neighbor with a dense scratch
  // vector (touched entries reset after each node) — no hashing, and the
  // candidate scan below walks neighbors in adjacency order, so ties break
  // on the first (lowest-id within insertion order) neighbor seen.
  std::vector<double> weight(n, 0.0);
  std::vector<std::size_t> touched;
  for (std::size_t u = 0; u < n; ++u) {
    if (mate[u] != kUnmatched) continue;
    touched.clear();
    for (const graph::Adjacency& adj : g.neighbors(nid(u))) {
      const std::size_t v = adj.neighbor.index();
      if (v == u || mate[v] != kUnmatched) continue;
      if (weight[v] <= 0.0 && std::find(touched.begin(), touched.end(), v) ==
                                  touched.end()) {
        touched.push_back(v);
      }
      weight[v] += fine.link(adj.edge).bandwidth_mbps;
    }
    std::size_t best = kUnmatched;
    double best_w = -1.0;
    for (const std::size_t v : touched) {
      if (weight[v] > best_w || (weight[v] >= best_w && v < best)) {
        best = v;
        best_w = weight[v];
      }
    }
    for (const std::size_t v : touched) weight[v] = 0.0;
    if (best != kUnmatched) {
      mate[u] = best;
      mate[best] = u;
    }
  }

  // Number groups by ascending lowest member id: singletons and the lower
  // endpoint of each matched pair claim the next group.
  std::vector<std::size_t> group(n, kUnmatched);
  std::size_t groups = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (group[u] != kUnmatched) continue;
    group[u] = groups;
    if (mate[u] != kUnmatched) group[mate[u]] = groups;
    ++groups;
  }
  return make_contraction(fine, std::move(group), groups);
}

model::PhysicalCluster coarse_cluster(const model::PhysicalCluster& fine,
                                      const Contraction& c) {
  const std::size_t groups = c.group_count();
  Topology topo;
  topo.graph = graph::Graph(groups);
  topo.role.reserve(groups);
  for (std::size_t grp = 0; grp < groups; ++grp) {
    topo.role.push_back(c.group_hosts[grp] == 0 ? NodeRole::kSwitch
                                                : NodeRole::kHost);
  }
  for (const Contraction::CoarseEdge& ce : c.coarse_edges) {
    topo.graph.add_edge(nid(ce.a), nid(ce.b));
  }
  const std::size_t hosts = topo.host_count();
  const model::PhysicalCluster shape = model::PhysicalCluster::build(
      std::move(topo), std::vector<model::HostCapacity>(hosts),
      model::LinkProps{});
  return coarse_resources(shape, fine, c);
}

model::PhysicalCluster coarse_resources(const model::PhysicalCluster& coarse,
                                        const model::PhysicalCluster& fine,
                                        const Contraction& c) {
  std::vector<model::HostCapacity> caps(coarse.node_count());
  for (const NodeId h : coarse.hosts()) {
    model::HostCapacity& cap = caps[h.index()];
    for (const NodeId m : c.members[h.index()]) {
      if (!fine.is_host(m)) continue;
      cap.proc_mips += fine.capacity(m).proc_mips;
      cap.mem_mb += fine.capacity(m).mem_mb;
      cap.stor_gb += fine.capacity(m).stor_gb;
    }
  }

  std::vector<model::LinkProps> links;
  links.reserve(c.coarse_edges.size());
  for (const Contraction::CoarseEdge& ce : c.coarse_edges) {
    model::LinkProps trunk;
    trunk.bandwidth_mbps = 0.0;
    trunk.latency_ms = std::numeric_limits<double>::infinity();
    for (const EdgeId e : ce.fine_edges) {
      trunk.bandwidth_mbps += fine.link(e).bandwidth_mbps;
      trunk.latency_ms = std::min(trunk.latency_ms, fine.link(e).latency_ms);
    }
    links.push_back(trunk);
  }
  return model::PhysicalCluster::with_resources(coarse, std::move(caps),
                                                std::move(links));
}

SubCluster induced_subcluster(const model::PhysicalCluster& parent,
                              const std::vector<NodeId>& nodes) {
  const graph::Graph& g = parent.graph();
  SubCluster sub;
  std::vector<NodeId> local(g.node_count(), NodeId::invalid());

  Topology topo;
  topo.graph = graph::Graph(nodes.size());
  topo.role.reserve(nodes.size());
  sub.to_parent_node.reserve(nodes.size());
  for (const NodeId p : nodes) {
    local[p.index()] = nid(sub.to_parent_node.size());
    sub.to_parent_node.push_back(p);
    topo.role.push_back(parent.topology().role[p.index()]);
  }

  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto ep = g.endpoints(eid(e));
    if (!local[ep.a.index()].valid() || !local[ep.b.index()].valid()) {
      continue;
    }
    topo.graph.add_edge(local[ep.a.index()], local[ep.b.index()]);
    sub.to_parent_edge.push_back(eid(e));
    links.push_back(parent.link(eid(e)));
  }

  std::vector<model::HostCapacity> caps;
  for (const NodeId p : nodes) {
    if (parent.is_host(p)) caps.push_back(parent.capacity(p));
  }
  sub.cluster = model::PhysicalCluster::build(std::move(topo),
                                              std::move(caps),
                                              std::move(links));
  return sub;
}

}  // namespace hmn::topology
