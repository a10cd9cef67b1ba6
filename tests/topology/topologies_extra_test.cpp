// Tests for the extended topology builders: 3-D torus, switch tree,
// dragonfly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/dijkstra.h"
#include "topology/topologies.h"

namespace {

using namespace hmn;
using topology::NodeRole;
using topology::Topology;

NodeId n(unsigned v) { return NodeId{v}; }

/// Hop-count diameter of a connected graph: the longest unit-weight
/// Dijkstra distance over every source.
double diameter(const graph::Graph& g) {
  double d = 0.0;
  for (std::size_t v = 0; v < g.node_count(); ++v) {
    const auto sp =
        graph::dijkstra(g, NodeId{static_cast<NodeId::underlying_type>(v)},
                        [](EdgeId) { return 1.0; });
    for (const double x : sp.dist) d = std::max(d, x);
  }
  return d;
}

void expect_simple_graph(const graph::Graph& g) {
  std::set<std::pair<unsigned, unsigned>> seen;
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto ep = g.endpoints(EdgeId{static_cast<EdgeId::underlying_type>(e)});
    EXPECT_NE(ep.a, ep.b);
    const std::pair<unsigned, unsigned> key{
        std::min(ep.a.value(), ep.b.value()),
        std::max(ep.a.value(), ep.b.value())};
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate edge " << key.first << "-" << key.second;
  }
}

TEST(Torus3d, CubeShape) {
  const Topology t = topology::torus_3d(3, 3, 3);
  EXPECT_EQ(t.host_count(), 27u);
  // 3 edges per node in a 3-D torus with all dims > 2: 3 * 27 = 81.
  EXPECT_EQ(t.graph.edge_count(), 81u);
  EXPECT_TRUE(t.graph.connected());
  expect_simple_graph(t.graph);
  for (unsigned i = 0; i < 27; ++i) EXPECT_EQ(t.graph.degree(n(i)), 6u);
}

TEST(Torus3d, DegenerateDimensionsCollapse) {
  // 1-wide dims reduce to lower-dimensional tori.
  const Topology flat = topology::torus_3d(4, 4, 1);
  const Topology square = topology::torus_2d(4, 4);
  EXPECT_EQ(flat.graph.edge_count(), square.graph.edge_count());
  expect_simple_graph(flat.graph);

  const Topology pair = topology::torus_3d(2, 1, 1);
  EXPECT_EQ(pair.graph.edge_count(), 1u);
  expect_simple_graph(pair.graph);

  const Topology single = topology::torus_3d(1, 1, 1);
  EXPECT_EQ(single.graph.edge_count(), 0u);
}

TEST(Torus3d, DiameterMatchesManhattanWrap) {
  const Topology t = topology::torus_3d(4, 4, 4);
  // Max wrap distance per dim = 2; diameter = 6.
  EXPECT_DOUBLE_EQ(diameter(t.graph), 6.0);
}

TEST(Mesh2d, ShapeAndDegrees) {
  const Topology t = topology::mesh_2d(3, 4);
  EXPECT_EQ(t.host_count(), 12u);
  // Edges: rows*(cols-1) + (rows-1)*cols = 9 + 8 = 17.
  EXPECT_EQ(t.graph.edge_count(), 17u);
  EXPECT_TRUE(t.graph.connected());
  expect_simple_graph(t.graph);
  EXPECT_EQ(t.graph.degree(n(0)), 2u);   // corner
  EXPECT_EQ(t.graph.degree(n(1)), 3u);   // edge
  EXPECT_EQ(t.graph.degree(n(5)), 4u);   // interior
}

TEST(Mesh2d, DiameterIsManhattan) {
  const Topology t = topology::mesh_2d(3, 4);
  EXPECT_DOUBLE_EQ(diameter(t.graph), 5.0);
}

TEST(Mesh2d, SingleRowIsLine) {
  const Topology t = topology::mesh_2d(1, 5);
  EXPECT_EQ(t.graph.edge_count(), 4u);
}

TEST(SwitchTree, SingleLevel) {
  const Topology t = topology::switch_tree(4, 8, 2);
  EXPECT_EQ(t.host_count(), 4u);
  EXPECT_EQ(t.switch_count(), 1u);  // all hosts under one leaf = root
  EXPECT_TRUE(t.graph.connected());
}

TEST(SwitchTree, TwoLevels) {
  // 8 hosts, 2 per leaf -> 4 leaves; fanout 4 -> 1 root.  5 switches.
  const Topology t = topology::switch_tree(8, 2, 4);
  EXPECT_EQ(t.host_count(), 8u);
  EXPECT_EQ(t.switch_count(), 5u);
  EXPECT_TRUE(t.graph.connected());
  // Host-to-host worst case: host-leaf-root-leaf-host = 4 hops.
  EXPECT_DOUBLE_EQ(diameter(t.graph), 4.0);
}

TEST(SwitchTree, ThreeLevels) {
  // 16 hosts, 2/leaf -> 8 leaves; fanout 2 -> 4 -> 2 -> 1: 8+4+2+1 = 15.
  const Topology t = topology::switch_tree(16, 2, 2);
  EXPECT_EQ(t.switch_count(), 15u);
  EXPECT_TRUE(t.graph.connected());
  expect_simple_graph(t.graph);
}

TEST(SwitchTree, UnevenGroupsStillConnected) {
  const Topology t = topology::switch_tree(7, 3, 2);
  EXPECT_EQ(t.host_count(), 7u);
  EXPECT_TRUE(t.graph.connected());
}

TEST(Dragonfly, ShapeAndConnectivity) {
  const Topology t = topology::dragonfly(4, 4);
  EXPECT_EQ(t.host_count(), 16u);
  EXPECT_EQ(t.switch_count(), 0u);
  // Intra: 4 groups x C(4,2) = 24; inter: C(4,2) = 6.
  EXPECT_EQ(t.graph.edge_count(), 30u);
  EXPECT_TRUE(t.graph.connected());
  expect_simple_graph(t.graph);
}

TEST(Dragonfly, SmallDiameter) {
  // Dragonfly diameter <= 3 (local, global, local).
  const Topology t = topology::dragonfly(6, 4);
  EXPECT_LE(diameter(t.graph), 3.0);
}

TEST(Dragonfly, SingleGroupIsFullMesh) {
  const Topology t = topology::dragonfly(1, 5);
  EXPECT_EQ(t.graph.edge_count(), 10u);
  EXPECT_DOUBLE_EQ(t.graph.density(), 1.0);
}

TEST(Dragonfly, GlobalLinksSpreadOverRouters) {
  // With routers >= groups-1, every router carries at most one global link.
  const Topology t = topology::dragonfly(4, 4);
  // Count inter-group incidences per router.
  std::vector<std::size_t> globals(t.graph.node_count(), 0);
  for (std::size_t e = 0; e < t.graph.edge_count(); ++e) {
    const auto ep = t.graph.endpoints(EdgeId{static_cast<EdgeId::underlying_type>(e)});
    if (ep.a.value() / 4 != ep.b.value() / 4) {
      ++globals[ep.a.index()];
      ++globals[ep.b.index()];
    }
  }
  for (const std::size_t g : globals) EXPECT_LE(g, 1u);
}

}  // namespace
