// Tests for the shared contraction bookkeeping (topology::Contraction):
// partition-of-nodes structure, edge accounting, resource conservation of
// the materialized coarse cluster, heavy-edge matching progress, and the
// induced-subcluster remap tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

#include "model/physical_cluster.h"
#include "topology/contraction.h"
#include "topology/topologies.h"
#include "util/rng.h"
#include "workload/host_generator.h"
#include "workload/presets.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using topology::Contraction;

model::PhysicalCluster uniform_cluster(topology::Topology topo,
                                       double proc_mips = 1000.0) {
  const std::size_t hosts = topo.host_count();
  return model::PhysicalCluster::build(
      std::move(topo),
      std::vector<model::HostCapacity>(hosts, {proc_mips, 4096, 4096}),
      model::LinkProps{1000.0, 5.0});
}

/// Structural invariants every contraction must satisfy: members partition
/// the node set, group_of_node round-trips, every fine edge is internal or
/// belongs to exactly one coarse edge, and adjacency mirrors coarse_edges.
void check_invariants(const model::PhysicalCluster& fine,
                      const Contraction& c) {
  const graph::Graph& g = fine.graph();
  ASSERT_EQ(c.group_of_node.size(), g.node_count());
  ASSERT_EQ(c.members.size(), c.group_count());
  ASSERT_EQ(c.group_proc_mips.size(), c.group_count());
  ASSERT_EQ(c.group_hosts.size(), c.group_count());
  ASSERT_EQ(c.adjacency.size(), c.group_count());
  ASSERT_EQ(c.coarse_edge_of.size(), g.edge_count());

  // members[] is a partition of the node set, ascending within each group.
  std::size_t covered = 0;
  for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
    ASSERT_FALSE(c.members[grp].empty());
    covered += c.members[grp].size();
    std::size_t hosts = 0;
    double mips = 0.0;
    for (std::size_t i = 0; i < c.members[grp].size(); ++i) {
      const NodeId n = c.members[grp][i];
      EXPECT_EQ(c.group_of_node[n.index()], grp);
      if (i > 0) {
        EXPECT_LT(c.members[grp][i - 1].value(), n.value());
      }
      if (fine.is_host(n)) {
        ++hosts;
        mips += fine.capacity(n).proc_mips;
      }
    }
    EXPECT_EQ(c.group_hosts[grp], hosts);
    EXPECT_DOUBLE_EQ(c.group_proc_mips[grp], mips);
  }
  EXPECT_EQ(covered, g.node_count());

  // Edge accounting: internal edges map to npos, crossing edges to the
  // coarse edge joining their endpoint groups, listed among its fine_edges.
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const EdgeId edge{static_cast<unsigned>(e)};
    const auto ep = g.endpoints(edge);
    const std::size_t ga = c.group_of_node[ep.a.index()];
    const std::size_t gb = c.group_of_node[ep.b.index()];
    const std::size_t ce = c.coarse_edge_of[e];
    if (ga == gb) {
      EXPECT_EQ(ce, Contraction::npos);
      continue;
    }
    ASSERT_LT(ce, c.coarse_edges.size());
    const auto& coarse = c.coarse_edges[ce];
    EXPECT_EQ(std::min(ga, gb), coarse.a);
    EXPECT_EQ(std::max(ga, gb), coarse.b);
    EXPECT_NE(std::find(coarse.fine_edges.begin(), coarse.fine_edges.end(),
                        edge),
              coarse.fine_edges.end());
  }

  // Coarse edges are (a, b)-ordered with a < b, and adjacency mirrors them.
  for (std::size_t i = 0; i < c.coarse_edges.size(); ++i) {
    const auto& ce = c.coarse_edges[i];
    EXPECT_LT(ce.a, ce.b);
    if (i > 0) {
      const auto& prev = c.coarse_edges[i - 1];
      EXPECT_TRUE(prev.a < ce.a || (prev.a == ce.a && prev.b < ce.b));
    }
    EXPECT_NE(std::find(c.adjacency[ce.a].begin(), c.adjacency[ce.a].end(),
                        ce.b),
              c.adjacency[ce.a].end());
    EXPECT_NE(std::find(c.adjacency[ce.b].begin(), c.adjacency[ce.b].end(),
                        ce.a),
              c.adjacency[ce.b].end());
  }
}

TEST(ContractionTest, RackUnitsGroupSwitchWithItsHosts) {
  const auto fine = uniform_cluster(topology::switch_tree(64, 8, 4));
  const Contraction c = topology::contract_rack_units(fine);
  check_invariants(fine, c);
  EXPECT_LT(c.group_count(), fine.node_count());

  // Every host shares a group with its (unique) uplink switch.
  const graph::Graph& g = fine.graph();
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const NodeId node{static_cast<unsigned>(i)};
    if (!fine.is_host(node)) continue;
    for (const graph::Adjacency& adj : g.neighbors(node)) {
      if (fine.is_host(adj.neighbor)) continue;
      EXPECT_EQ(c.group_of_node[i], c.group_of_node[adj.neighbor.index()]);
    }
  }
}

TEST(ContractionTest, RackUnitsOnHostOnlyFabricAreSingletons) {
  const auto fine = uniform_cluster(topology::torus_2d(4, 4));
  const Contraction c = topology::contract_rack_units(fine);
  check_invariants(fine, c);
  // No switches: every host is its own unit, nothing contracts.
  EXPECT_EQ(c.group_count(), fine.node_count());
}

TEST(ContractionTest, CoarseClusterConservesResources) {
  const auto fine = uniform_cluster(topology::switch_tree(48, 8, 4), 750.0);
  const Contraction c = topology::contract_rack_units(fine);
  const model::PhysicalCluster coarse = topology::coarse_cluster(fine, c);

  ASSERT_EQ(coarse.node_count(), c.group_count());
  ASSERT_EQ(coarse.link_count(), c.coarse_edges.size());

  // CPU/mem conservation: coarse aggregate == fine aggregate.
  double fine_mips = 0.0, fine_mem = 0.0;
  for (const NodeId h : fine.hosts()) {
    fine_mips += fine.capacity(h).proc_mips;
    fine_mem += fine.capacity(h).mem_mb;
  }
  double coarse_mips = 0.0, coarse_mem = 0.0;
  for (const NodeId h : coarse.hosts()) {
    coarse_mips += coarse.capacity(h).proc_mips;
    coarse_mem += coarse.capacity(h).mem_mb;
  }
  EXPECT_DOUBLE_EQ(coarse_mips, fine_mips);
  EXPECT_DOUBLE_EQ(coarse_mem, fine_mem);

  // A group is a host-role coarse node iff it contains a host.
  for (std::size_t grp = 0; grp < c.group_count(); ++grp) {
    const NodeId n{static_cast<unsigned>(grp)};
    EXPECT_EQ(coarse.is_host(n), c.group_hosts[grp] > 0);
  }

  // Trunk links: bandwidth summed, latency minimized over crossing edges.
  for (std::size_t e = 0; e < coarse.link_count(); ++e) {
    const EdgeId ce{static_cast<unsigned>(e)};
    double bw = 0.0;
    double lat = std::numeric_limits<double>::infinity();
    for (const EdgeId fe : c.coarse_edges[e].fine_edges) {
      bw += fine.link(fe).bandwidth_mbps;
      lat = std::min(lat, fine.link(fe).latency_ms);
    }
    EXPECT_DOUBLE_EQ(coarse.link(ce).bandwidth_mbps, bw);
    EXPECT_DOUBLE_EQ(coarse.link(ce).latency_ms, lat);
  }

  // Connectivity is preserved through contraction.
  EXPECT_TRUE(fine.graph().connected());
  EXPECT_TRUE(coarse.graph().connected());
}

TEST(ContractionTest, HeavyMatchingShrinksAndStaysConnected) {
  const auto fine = uniform_cluster(topology::torus_2d(6, 6));
  const Contraction c = topology::contract_heavy_matching(fine);
  check_invariants(fine, c);
  // A connected graph with >= 2 nodes always has at least one match.
  EXPECT_LT(c.group_count(), fine.node_count());
  // Matching pairs at most two nodes per group.
  for (const auto& members : c.members) {
    EXPECT_LE(members.size(), 2u);
  }
  const model::PhysicalCluster coarse = topology::coarse_cluster(fine, c);
  EXPECT_TRUE(coarse.graph().connected());
}

TEST(ContractionTest, HeavyMatchingPrefersHeavierEdges) {
  // A 4-ring where edge 3-0 carries 10x bandwidth: node 0 scans first and
  // must pair with neighbor 3 (heavy) over neighbor 1, leaving 1 and 2 to
  // pair with each other.
  auto topo = topology::ring(4);
  std::vector<model::LinkProps> links(4, {100.0, 1.0});
  links[3].bandwidth_mbps = 1000.0;  // the 3-0 edge
  const auto fine = model::PhysicalCluster::build(
      std::move(topo),
      std::vector<model::HostCapacity>(4, {1000.0, 4096, 4096}),
      std::move(links));
  const auto heavy_ep = fine.graph().endpoints(EdgeId{3});
  ASSERT_TRUE((heavy_ep.a == NodeId{3} && heavy_ep.b == NodeId{0}) ||
              (heavy_ep.a == NodeId{0} && heavy_ep.b == NodeId{3}));
  const Contraction c = topology::contract_heavy_matching(fine);
  check_invariants(fine, c);
  ASSERT_EQ(c.group_count(), 2u);
  EXPECT_EQ(c.group_of_node[0], c.group_of_node[3]);
  EXPECT_EQ(c.group_of_node[1], c.group_of_node[2]);
  EXPECT_NE(c.group_of_node[0], c.group_of_node[1]);
}

TEST(ContractionTest, InducedSubclusterRemapsFaithfully) {
  const auto parent = uniform_cluster(topology::switch_tree(16, 4, 2));
  // Take one rack unit's nodes (a switch plus its hosts).
  const Contraction c = topology::contract_rack_units(parent);
  const std::vector<NodeId>& nodes = c.members[0];
  const topology::SubCluster sub = topology::induced_subcluster(parent, nodes);

  ASSERT_EQ(sub.cluster.node_count(), nodes.size());
  ASSERT_EQ(sub.to_parent_node.size(), nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId local{static_cast<unsigned>(i)};
    EXPECT_EQ(sub.to_parent_node[i], nodes[i]);
    EXPECT_EQ(sub.cluster.is_host(local), parent.is_host(nodes[i]));
    EXPECT_DOUBLE_EQ(sub.cluster.capacity(local).proc_mips,
                     parent.capacity(nodes[i]).proc_mips);
  }
  // Edge remap: every local edge joins the parent edge's endpoints.
  ASSERT_EQ(sub.to_parent_edge.size(), sub.cluster.link_count());
  for (std::size_t e = 0; e < sub.cluster.link_count(); ++e) {
    const EdgeId local{static_cast<unsigned>(e)};
    const auto lep = sub.cluster.graph().endpoints(local);
    const auto pep = parent.graph().endpoints(sub.to_parent_edge[e]);
    EXPECT_EQ(sub.to_parent_node[lep.a.index()], pep.a);
    EXPECT_EQ(sub.to_parent_node[lep.b.index()], pep.b);
    EXPECT_DOUBLE_EQ(sub.cluster.link(local).bandwidth_mbps,
                     parent.link(sub.to_parent_edge[e]).bandwidth_mbps);
  }
  // A rack unit's induced subcluster is connected (star around the switch).
  EXPECT_TRUE(sub.cluster.graph().connected());
}

/// The multilevel refiner hands a whole-level region to the stages as the
/// level itself, on the premise that the subcluster induced by every node
/// is the cluster: same roles, edges in the same order with the same
/// endpoints, the same adjacency order, capacities and link properties,
/// and identity remap tables.
void expect_whole_induction_is_identity(const model::PhysicalCluster& c) {
  std::vector<NodeId> every;
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    every.push_back(NodeId{static_cast<NodeId::underlying_type>(n)});
  }
  const topology::SubCluster sub = topology::induced_subcluster(c, every);
  const model::PhysicalCluster& s = sub.cluster;
  ASSERT_EQ(s.node_count(), c.node_count());
  ASSERT_EQ(s.link_count(), c.link_count());
  EXPECT_EQ(s.hosts(), c.hosts());
  EXPECT_EQ(sub.to_parent_node, every);
  ASSERT_EQ(sub.to_parent_edge.size(), c.link_count());
  for (std::size_t n = 0; n < c.node_count(); ++n) {
    const NodeId id = every[n];
    EXPECT_EQ(s.topology().role[n], c.topology().role[n]) << "node " << n;
    EXPECT_EQ(s.capacity(id).proc_mips, c.capacity(id).proc_mips);
    EXPECT_EQ(s.capacity(id).mem_mb, c.capacity(id).mem_mb);
    EXPECT_EQ(s.capacity(id).stor_gb, c.capacity(id).stor_gb);
    const auto sa = s.graph().neighbors(id);
    const auto ca = c.graph().neighbors(id);
    ASSERT_EQ(sa.size(), ca.size()) << "node " << n;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].neighbor, ca[i].neighbor) << "node " << n;
      EXPECT_EQ(sa[i].edge, ca[i].edge) << "node " << n;
    }
  }
  for (std::size_t e = 0; e < c.link_count(); ++e) {
    const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
    EXPECT_EQ(sub.to_parent_edge[e], id);
    EXPECT_EQ(s.graph().endpoints(id).a, c.graph().endpoints(id).a);
    EXPECT_EQ(s.graph().endpoints(id).b, c.graph().endpoints(id).b);
    EXPECT_EQ(s.link(id).bandwidth_mbps, c.link(id).bandwidth_mbps);
    EXPECT_EQ(s.link(id).latency_ms, c.link(id).latency_ms);
  }
}

TEST(ContractionTest, InducedSubclusterOfEveryNodeIsTheCluster) {
  expect_whole_induction_is_identity(
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 3));
  expect_whole_induction_is_identity(
      workload::make_paper_cluster(workload::ClusterKind::kTorus2D, 3));

  // A switch tree with Table 1 capacities, a distinct bandwidth and
  // latency on every link, and a failed host and link.
  auto topo = topology::switch_tree(200, 8, 4);
  std::vector<model::LinkProps> links;
  for (std::size_t e = 0; e < topo.graph.edge_count(); ++e) {
    links.push_back({100.0 + static_cast<double>(e),
                     0.1 * static_cast<double>(1 + e % 7)});
  }
  util::Rng rng(5);
  auto caps =
      workload::generate_hosts(200, workload::paper_host_profile(), rng);
  auto tree = model::PhysicalCluster::build(std::move(topo), std::move(caps),
                                            std::move(links));
  tree.fail_node(tree.hosts()[17]);
  tree.fail_link(EdgeId{3});
  expect_whole_induction_is_identity(tree);
}

TEST(ContractionTest, DeterministicAcrossCalls) {
  const auto fine = uniform_cluster(topology::switch_tree(96, 8, 4));
  const Contraction a = topology::contract_rack_units(fine);
  const Contraction b = topology::contract_rack_units(fine);
  EXPECT_EQ(a.group_of_node, b.group_of_node);
  EXPECT_EQ(a.coarse_edge_of, b.coarse_edge_of);
  const Contraction ha = topology::contract_heavy_matching(fine);
  const Contraction hb = topology::contract_heavy_matching(fine);
  EXPECT_EQ(ha.group_of_node, hb.group_of_node);
  EXPECT_EQ(ha.coarse_edge_of, hb.coarse_edge_of);
}

}  // namespace
