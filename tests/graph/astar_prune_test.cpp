// Tests for the modified 1-constrained A*Prune (Algorithm 1) and the
// general K-shortest-paths A*Prune, including brute-force cross-checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "graph/astar_prune.h"
#include "topology/topologies.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using graph::AStarPruneOptions;
using graph::ConstrainedPath;
using graph::Graph;
using graph::astar_prune_bottleneck;

constexpr double kInf = std::numeric_limits<double>::infinity();

NodeId n(unsigned v) { return NodeId{v}; }

struct TestNet {
  Graph g;
  std::vector<double> bw;
  std::vector<double> lat;

  explicit TestNet(std::size_t nodes) : g(nodes) {}
  EdgeId edge(unsigned a, unsigned b, double bandwidth, double latency) {
    const EdgeId e = g.add_edge(n(a), n(b));
    bw.push_back(bandwidth);
    lat.push_back(latency);
    return e;
  }
  auto bw_fn() const {
    return [this](EdgeId e) { return bw[e.index()]; };
  }
  auto lat_fn() const {
    return [this](EdgeId e) { return lat[e.index()]; };
  }
  std::optional<ConstrainedPath> route(unsigned a, unsigned b, double demand,
                                       double max_lat,
                                       AStarPruneOptions opts = {}) const {
    return astar_prune_bottleneck(g, n(a), n(b), demand, max_lat, bw_fn(),
                                  lat_fn(), opts);
  }
};

/// Exhaustive enumeration of simple paths: the ground truth the heuristic
/// search is checked against on small graphs.
struct BruteForce {
  const TestNet& net;
  double demand, max_lat;
  double best_bottleneck = -1.0;
  bool feasible = false;

  void run(NodeId from, NodeId to) {
    std::vector<bool> visited(net.g.node_count(), false);
    visited[from.index()] = true;
    rec(from, to, visited, kInf, 0.0);
  }
  void rec(NodeId u, NodeId to, std::vector<bool>& visited, double bneck,
           double lat_acc) {
    if (u == to) {
      feasible = true;
      best_bottleneck = std::max(best_bottleneck, bneck);
      return;
    }
    for (const auto& adj : net.g.neighbors(u)) {
      if (visited[adj.neighbor.index()]) continue;
      const double b = net.bw[adj.edge.index()];
      const double l = net.lat[adj.edge.index()];
      if (b < demand || lat_acc + l > max_lat) continue;
      visited[adj.neighbor.index()] = true;
      rec(adj.neighbor, to, visited, std::min(bneck, b), lat_acc + l);
      visited[adj.neighbor.index()] = false;
    }
  }
};

TEST(AStarPrune, SameNodeIsEmptyPath) {
  TestNet net(2);
  net.edge(0, 1, 10, 1);
  const auto p = net.route(0, 0, 5, 100);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->edges.empty());
  EXPECT_EQ(p->bottleneck_bw, kInf);
  EXPECT_DOUBLE_EQ(p->total_latency, 0.0);
}

TEST(AStarPrune, DirectEdge) {
  TestNet net(2);
  net.edge(0, 1, 10, 5);
  const auto p = net.route(0, 1, 5, 10);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->edges.size(), 1u);
  EXPECT_DOUBLE_EQ(p->bottleneck_bw, 10.0);
  EXPECT_DOUBLE_EQ(p->total_latency, 5.0);
}

TEST(AStarPrune, PrefersWiderPathWithinLatency) {
  TestNet net(3);
  net.edge(0, 1, 2, 1);   // narrow direct
  net.edge(0, 2, 10, 1);  // wide detour
  net.edge(2, 1, 10, 1);
  const auto p = net.route(0, 1, 1, 10);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->edges.size(), 2u);
  EXPECT_DOUBLE_EQ(p->bottleneck_bw, 10.0);
}

TEST(AStarPrune, LatencyForbidsWideDetour) {
  TestNet net(3);
  net.edge(0, 1, 2, 1);    // narrow direct, fast
  net.edge(0, 2, 10, 6);   // wide detour, slow
  net.edge(2, 1, 10, 6);
  const auto p = net.route(0, 1, 1, 5);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->edges.size(), 1u);
  EXPECT_DOUBLE_EQ(p->bottleneck_bw, 2.0);
}

TEST(AStarPrune, BandwidthDemandPrunesEdges) {
  TestNet net(3);
  net.edge(0, 1, 2, 1);
  net.edge(0, 2, 10, 1);
  net.edge(2, 1, 10, 1);
  // Demand 5 kills the direct edge even though it is latency-optimal.
  const auto p = net.route(0, 1, 5, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->edges.size(), 2u);
}

TEST(AStarPrune, InfeasibleLatencyFails) {
  TestNet net(2);
  net.edge(0, 1, 10, 20);
  EXPECT_FALSE(net.route(0, 1, 1, 10).has_value());
}

TEST(AStarPrune, InfeasibleBandwidthFails) {
  TestNet net(2);
  net.edge(0, 1, 3, 1);
  EXPECT_FALSE(net.route(0, 1, 5, 100).has_value());
}

TEST(AStarPrune, DisconnectedFails) {
  TestNet net(3);
  net.edge(0, 1, 10, 1);
  EXPECT_FALSE(net.route(0, 2, 1, 100).has_value());
}

TEST(AStarPrune, ExactLatencyBoundAccepted) {
  TestNet net(3);
  net.edge(0, 1, 10, 5);
  net.edge(1, 2, 10, 5);
  EXPECT_TRUE(net.route(0, 2, 1, 10).has_value());
  EXPECT_FALSE(net.route(0, 2, 1, 9.999).has_value());
}

TEST(AStarPrune, ExactBandwidthDemandAccepted) {
  TestNet net(2);
  net.edge(0, 1, 5, 1);
  EXPECT_TRUE(net.route(0, 1, 5.0, 10).has_value());
}

TEST(AStarPrune, ResultIsSimplePath) {
  TestNet net(4);
  net.edge(0, 1, 10, 1);
  net.edge(1, 2, 10, 1);
  net.edge(2, 3, 10, 1);
  net.edge(0, 2, 1, 1);
  net.edge(1, 3, 1, 1);
  const auto p = net.route(0, 3, 5, 10);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(graph::path_is_simple(net.g, n(0), n(3), p->edges));
}

TEST(AStarPrune, PrecomputedLatencyBoundMatchesInternal) {
  TestNet net(4);
  net.edge(0, 1, 10, 1);
  net.edge(1, 2, 8, 2);
  net.edge(2, 3, 6, 3);
  net.edge(0, 3, 4, 7);
  const auto internal = net.route(0, 3, 1, 7);
  const auto ar = graph::dijkstra(net.g, n(3), net.lat_fn()).dist;
  AStarPruneOptions opts;
  opts.lat_to_dest = &ar;
  const auto external = net.route(0, 3, 1, 7, opts);
  ASSERT_TRUE(internal.has_value());
  ASSERT_TRUE(external.has_value());
  EXPECT_EQ(internal->edges, external->edges);
}

// One scratch reused across many searches answers exactly what a fresh
// scratch answers: the label lists, arena and frontier a search leaves
// behind must not leak into the next one, also when the graph shrinks.
TEST(AStarPrune, ReusedScratchMatchesFreshSearch) {
  const auto torus =
      workload::make_paper_cluster(workload::ClusterKind::kTorus2D, 1);
  const auto switched =
      workload::make_paper_cluster(workload::ClusterKind::kSwitched, 1);
  hmn::util::Rng rng(20261017);
  TestNet small(9);
  small.g = topology::random_connected_graph(9, 0.35, rng);
  for (std::size_t e = 0; e < small.g.edge_count(); ++e) {
    small.bw.push_back(rng.uniform(1.0, 10.0));
    small.lat.push_back(rng.uniform(0.5, 3.0));
  }

  graph::AStarPruneScratch scratch;
  // `cap`/`lat` per edge; every query draws fresh residual bandwidth,
  // endpoints, demand and latency bound.  Only the small graph also runs
  // the literal enumeration (no dominance pruning): it is exponential.
  auto sweep = [&](const Graph& g, const std::vector<double>& cap,
                   const std::vector<double>& lat, bool literal) {
    std::vector<double> bw(cap.size());
    const auto bw_fn = [&](EdgeId e) { return bw[e.index()]; };
    const auto lat_fn = [&](EdgeId e) { return lat[e.index()]; };
    const double max_cap = *std::max_element(cap.begin(), cap.end());
    std::size_t found = 0;
    std::size_t refused = 0;
    for (int q = 0; q < 1000; ++q) {
      for (std::size_t e = 0; e < bw.size(); ++e) {
        bw[e] = rng.chance(0.1) ? 0.0 : cap[e] * rng.uniform01();
      }
      const NodeId from{static_cast<unsigned>(rng.index(g.node_count()))};
      const NodeId to{static_cast<unsigned>(rng.index(g.node_count()))};
      const double demand = rng.uniform(0.0, 0.5) * max_cap;
      const auto ar = graph::dijkstra(g, to, lat_fn).dist;
      const double max_lat =
          ar[from.index()] * rng.uniform(0.9, 3.0) + rng.uniform(0.0, 1.0);
      AStarPruneOptions opts;
      opts.prune_dominated = !(literal && q % 3 == 0);
      if (q % 2 == 0) opts.lat_to_dest = &ar;
      const auto reused = astar_prune_bottleneck(
          g, from, to, demand, max_lat, bw_fn, lat_fn, opts, scratch);
      const auto fresh = astar_prune_bottleneck(g, from, to, demand, max_lat,
                                                bw_fn, lat_fn, opts);
      ASSERT_EQ(reused.has_value(), fresh.has_value()) << "query " << q;
      if (!fresh.has_value()) {
        ++refused;
        continue;
      }
      ++found;
      EXPECT_EQ(reused->edges, fresh->edges) << "query " << q;
      EXPECT_EQ(reused->bottleneck_bw, fresh->bottleneck_bw) << "query " << q;
      EXPECT_EQ(reused->total_latency, fresh->total_latency) << "query " << q;
    }
    // Both outcomes occur, so the sweep checks searches that end early
    // and searches that drain the frontier.
    EXPECT_GT(found, 100u);
    EXPECT_GT(refused, 100u);
  };
  auto cluster_caps = [](const model::PhysicalCluster& c) {
    std::vector<double> cap, lat;
    for (std::size_t e = 0; e < c.link_count(); ++e) {
      const EdgeId id{static_cast<EdgeId::underlying_type>(e)};
      cap.push_back(c.link(id).bandwidth_mbps);
      lat.push_back(c.link(id).latency_ms);
    }
    return std::pair{cap, lat};
  };
  const auto [torus_cap, torus_lat] = cluster_caps(torus);
  sweep(torus.graph(), torus_cap, torus_lat, false);
  const auto [switched_cap, switched_lat] = cluster_caps(switched);
  sweep(switched.graph(), switched_cap, switched_lat, false);
  sweep(small.g, small.bw, small.lat, true);
}

// ---- Property sweeps against brute force on random graphs.

struct SweepParam {
  std::uint64_t seed;
  bool prune_dominated;
};

class AStarPruneVsBruteForce
    : public testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(AStarPruneVsBruteForce, FindsMaxBottleneckFeasiblePath) {
  const auto [seed, prune] = GetParam();
  hmn::util::Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  TestNet net(10);
  net.g = topology::random_connected_graph(10, 0.3, rng);
  for (std::size_t e = 0; e < net.g.edge_count(); ++e) {
    net.bw.push_back(rng.uniform(1.0, 10.0));
    net.lat.push_back(rng.uniform(0.5, 3.0));
  }

  AStarPruneOptions opts;
  opts.prune_dominated = prune;
  for (unsigned from = 0; from < 10; ++from) {
    for (unsigned to = 0; to < 10; ++to) {
      if (from == to) continue;
      const double demand = rng.uniform(0.0, 8.0);
      const double max_lat = rng.uniform(1.0, 8.0);
      BruteForce ref{net, demand, max_lat};
      ref.run(n(from), n(to));
      const auto p = net.route(from, to, demand, max_lat, opts);
      ASSERT_EQ(p.has_value(), ref.feasible)
          << from << "->" << to << " demand=" << demand
          << " max_lat=" << max_lat;
      if (p.has_value()) {
        // Optimal bottleneck, and internally consistent metrics.
        EXPECT_NEAR(p->bottleneck_bw, ref.best_bottleneck, 1e-9);
        EXPECT_TRUE(graph::path_is_simple(net.g, n(from), n(to), p->edges));
        double lat = 0.0, bneck = kInf;
        for (const EdgeId e : p->edges) {
          lat += net.lat[e.index()];
          bneck = std::min(bneck, net.bw[e.index()]);
        }
        EXPECT_NEAR(lat, p->total_latency, 1e-9);
        EXPECT_NEAR(bneck, p->bottleneck_bw, 1e-9);
        EXPECT_LE(lat, max_lat + 1e-9);
        EXPECT_GE(bneck, demand - 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AStarPruneVsBruteForce,
                         testing::Combine(testing::Range(1, 9),
                                          testing::Bool()));

// Dominance pruning must not change results (exactness of the Pareto
// label store).
TEST(AStarPrune, DominancePruningPreservesOptimum) {
  hmn::util::Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    TestNet net(12);
    net.g = topology::random_connected_graph(12, 0.25, rng);
    for (std::size_t e = 0; e < net.g.edge_count(); ++e) {
      net.bw.push_back(rng.uniform(1.0, 10.0));
      net.lat.push_back(rng.uniform(0.5, 3.0));
    }
    AStarPruneOptions with, without;
    with.prune_dominated = true;
    without.prune_dominated = false;
    const double demand = rng.uniform(0.0, 5.0);
    const double max_lat = rng.uniform(2.0, 9.0);
    const auto a = net.route(0, 11, demand, max_lat, with);
    const auto b = net.route(0, 11, demand, max_lat, without);
    ASSERT_EQ(a.has_value(), b.has_value()) << "trial " << trial;
    if (a.has_value()) {
      EXPECT_NEAR(a->bottleneck_bw, b->bottleneck_bw, 1e-9);
    }
  }
}

}  // namespace
