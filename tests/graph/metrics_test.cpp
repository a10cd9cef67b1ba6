// Tests for graph::articulation_points.
#include <gtest/gtest.h>

#include <set>

#include "graph/metrics.h"
#include "util/rng.h"
#include "topology/topologies.h"

namespace {

using namespace hmn;

TEST(ArticulationPoints, LineInteriorNodesAreCuts) {
  const auto t = topology::line(5);
  const auto cuts = graph::articulation_points(t.graph);
  EXPECT_EQ(cuts, (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
}

TEST(ArticulationPoints, RingHasNone) {
  const auto t = topology::ring(6);
  EXPECT_TRUE(graph::articulation_points(t.graph).empty());
}

TEST(ArticulationPoints, TorusHasNone) {
  const auto t = topology::torus_2d(8, 5);
  EXPECT_TRUE(graph::articulation_points(t.graph).empty());
}

TEST(ArticulationPoints, StarHubIsTheOnlyCut) {
  const auto t = topology::star(5);
  const auto cuts = graph::articulation_points(t.graph);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0], NodeId{5});  // the switch
}

TEST(ArticulationPoints, SwitchedClusterEverySwitchIsCritical) {
  const auto t = topology::switched(20, 8);  // cascade of several switches
  const auto cuts = graph::articulation_points(t.graph);
  std::size_t switch_cuts = 0;
  for (const NodeId c : cuts) {
    EXPECT_EQ(t.role[c.index()], topology::NodeRole::kSwitch);
    ++switch_cuts;
  }
  EXPECT_EQ(switch_cuts, t.switch_count());
}

TEST(ArticulationPoints, ParallelEdgesDoNotCreateCuts) {
  graph::Graph g(3);
  g.add_edge(NodeId{0}, NodeId{1});
  g.add_edge(NodeId{1}, NodeId{2});
  g.add_edge(NodeId{1}, NodeId{2});  // doubled: still cut at node 1 only
  const auto cuts = graph::articulation_points(g);
  EXPECT_EQ(cuts, std::vector<NodeId>{NodeId{1}});
}

TEST(ArticulationPoints, MatchesBruteForceComponentCount) {
  // Property check on random graphs: v is a cut vertex iff removing it
  // increases the component count of its component.
  hmn::util::Rng rng(9090);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = topology::random_connected_graph(15, 0.15, rng);
    const auto cuts = graph::articulation_points(g);
    std::set<unsigned> cut_set;
    for (const NodeId c : cuts) cut_set.insert(c.value());
    for (unsigned v = 0; v < 15; ++v) {
      // Rebuild the graph without v.
      graph::Graph reduced(15);
      for (std::size_t e = 0; e < g.edge_count(); ++e) {
        const auto ep = g.endpoints(EdgeId{static_cast<EdgeId::underlying_type>(e)});
        if (ep.a.value() == v || ep.b.value() == v) continue;
        reduced.add_edge(ep.a, ep.b);
      }
      // Components excluding the isolated v itself: total minus one.
      const std::size_t comps = reduced.component_count() - 1;
      EXPECT_EQ(cut_set.contains(v), comps > 1)
          << "node " << v << " trial " << trial;
    }
  }
}

}  // namespace
