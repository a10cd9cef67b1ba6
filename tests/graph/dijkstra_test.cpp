// Tests for Dijkstra shortest paths.
#include <gtest/gtest.h>

#include <limits>

#include "graph/dijkstra.h"
#include "topology/topologies.h"
#include "util/rng.h"

namespace {

using namespace hmn;
using graph::Graph;
using graph::dijkstra;
using graph::extract_path;

constexpr double kInf = std::numeric_limits<double>::infinity();

NodeId n(unsigned v) { return NodeId{v}; }

struct WeightedGraph {
  Graph g;
  std::vector<double> w;

  EdgeId edge(unsigned a, unsigned b, double weight) {
    const EdgeId e = g.add_edge(n(a), n(b));
    w.push_back(weight);
    return e;
  }
  auto weight_fn() const {
    return [this](EdgeId e) { return w[e.index()]; };
  }
};

TEST(Dijkstra, SingleNode) {
  WeightedGraph wg;
  wg.g = Graph(1);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  EXPECT_DOUBLE_EQ(sp.dist[0], 0.0);
  EXPECT_FALSE(sp.parent_edge[0].valid());
}

TEST(Dijkstra, LinearChainDistances) {
  WeightedGraph wg;
  wg.g = Graph(4);
  wg.edge(0, 1, 1.0);
  wg.edge(1, 2, 2.0);
  wg.edge(2, 3, 3.0);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  EXPECT_DOUBLE_EQ(sp.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(sp.dist[2], 3.0);
  EXPECT_DOUBLE_EQ(sp.dist[3], 6.0);
}

TEST(Dijkstra, PrefersCheaperDetour) {
  WeightedGraph wg;
  wg.g = Graph(3);
  wg.edge(0, 2, 10.0);  // direct but expensive
  wg.edge(0, 1, 1.0);
  wg.edge(1, 2, 1.0);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  EXPECT_DOUBLE_EQ(sp.dist[2], 2.0);
  const auto path = extract_path(wg.g, sp, n(0), n(2));
  EXPECT_EQ(path.size(), 2u);
}

TEST(Dijkstra, UnreachableIsInfinity) {
  WeightedGraph wg;
  wg.g = Graph(3);
  wg.edge(0, 1, 1.0);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  EXPECT_EQ(sp.dist[2], kInf);
  EXPECT_FALSE(sp.reachable(n(2)));
  EXPECT_TRUE(sp.reachable(n(1)));
}

TEST(Dijkstra, InfiniteWeightSkipsEdge) {
  WeightedGraph wg;
  wg.g = Graph(2);
  wg.edge(0, 1, kInf);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  EXPECT_FALSE(sp.reachable(n(1)));
}

TEST(Dijkstra, ZeroWeightEdges) {
  WeightedGraph wg;
  wg.g = Graph(3);
  wg.edge(0, 1, 0.0);
  wg.edge(1, 2, 0.0);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  EXPECT_DOUBLE_EQ(sp.dist[2], 0.0);
}

TEST(Dijkstra, ParallelEdgesTakeCheapest) {
  WeightedGraph wg;
  wg.g = Graph(2);
  wg.edge(0, 1, 5.0);
  const EdgeId cheap = wg.edge(0, 1, 2.0);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  EXPECT_DOUBLE_EQ(sp.dist[1], 2.0);
  EXPECT_EQ(sp.parent_edge[1], cheap);
}

TEST(Dijkstra, ExtractPathReconstructsChain) {
  WeightedGraph wg;
  wg.g = Graph(5);
  wg.edge(0, 1, 1.0);
  wg.edge(1, 2, 1.0);
  wg.edge(2, 3, 1.0);
  wg.edge(3, 4, 1.0);
  wg.edge(0, 4, 10.0);
  const auto sp = dijkstra(wg.g, n(0), wg.weight_fn());
  const auto path = extract_path(wg.g, sp, n(0), n(4));
  EXPECT_EQ(path.size(), 4u);
  EXPECT_TRUE(graph::path_is_simple(wg.g, n(0), n(4), path));
  const auto empty = extract_path(wg.g, sp, n(0), n(0));
  EXPECT_TRUE(empty.empty());
}

TEST(Dijkstra, TorusDistancesMatchManhattanWithWrap) {
  const auto topo = topology::torus_2d(4, 4);
  auto unit = [](EdgeId) { return 1.0; };
  const auto sp = dijkstra(topo.graph, n(0), unit);
  // Node (r,c) = 4r + c; torus distance = wrap(r) + wrap(c).
  for (unsigned r = 0; r < 4; ++r) {
    for (unsigned c = 0; c < 4; ++c) {
      const double dr = std::min(r, 4 - r);
      const double dc = std::min(c, 4 - c);
      EXPECT_DOUBLE_EQ(sp.dist[4 * r + c], dr + dc) << "node " << 4 * r + c;
    }
  }
}

// Property: on random graphs, Dijkstra distances satisfy the triangle
// inequality over every edge (the relaxation fixpoint).
class DijkstraProperty : public testing::TestWithParam<int> {};

TEST_P(DijkstraProperty, RelaxationFixpoint) {
  hmn::util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = topology::random_connected_graph(30, 0.2, rng);
  std::vector<double> w(g.edge_count());
  for (auto& x : w) x = rng.uniform(0.1, 10.0);
  auto weight = [&](EdgeId e) { return w[e.index()]; };
  const auto sp = dijkstra(g, n(0), weight);
  for (std::size_t e = 0; e < g.edge_count(); ++e) {
    const auto ep = g.endpoints(EdgeId{static_cast<EdgeId::underlying_type>(e)});
    EXPECT_LE(sp.dist[ep.a.index()], sp.dist[ep.b.index()] + w[e] + 1e-9);
    EXPECT_LE(sp.dist[ep.b.index()], sp.dist[ep.a.index()] + w[e] + 1e-9);
  }
  // Every extracted path's length equals the reported distance.
  for (unsigned v = 1; v < 30; ++v) {
    const auto path = extract_path(g, sp, n(0), n(v));
    double len = 0.0;
    for (const EdgeId e : path) len += w[e.index()];
    EXPECT_NEAR(len, sp.dist[v], 1e-9);
    EXPECT_TRUE(graph::path_is_simple(g, n(0), n(v), path));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraProperty, testing::Range(1, 11));

}  // namespace
