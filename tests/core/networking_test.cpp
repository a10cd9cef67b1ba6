// Tests for the Networking stage (Section 4.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "core/networking.h"
#include "testing/fixtures.h"
#include "topology/contraction.h"
#include "util/rng.h"
#include "workload/scenario.h"

namespace {

using namespace hmn;
using namespace hmn::test;
using core::NetworkingOptions;
using core::PathAlgorithm;
using core::ResidualState;
using core::run_networking;
using model::VirtualEnvironment;

TEST(Networking, IntraHostLinksGetEmptyPaths) {
  const auto cluster = line_cluster(2);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {10.0, 60.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(0)};
  const auto r = run_networking(venv, st, placement);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_TRUE(r.link_paths[0].empty());
  EXPECT_EQ(r.links_routed, 0u);
  EXPECT_DOUBLE_EQ(st.residual_bw(EdgeId{0}), 1000.0);  // nothing reserved
}

TEST(Networking, RoutesInterHostLink) {
  const auto cluster = line_cluster(3);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {10.0, 60.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(2)};
  const auto r = run_networking(venv, st, placement);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.link_paths[0].size(), 2u);
  EXPECT_EQ(r.links_routed, 1u);
  EXPECT_DOUBLE_EQ(st.residual_bw(EdgeId{0}), 990.0);
  EXPECT_DOUBLE_EQ(st.residual_bw(EdgeId{1}), 990.0);
}

TEST(Networking, FailsWhenLatencyUnreachable) {
  // 3 hops x 5 ms = 15 ms; demand allows only 10 ms.
  const auto cluster = line_cluster(4);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {1.0, 10.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(3)};
  const auto r = run_networking(venv, st, placement);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.detail.empty());
}

TEST(Networking, FailsWhenBandwidthExhausted) {
  // Physical capacity 15 Mbps; two links of 10 Mbps cannot share one edge.
  const auto cluster = line_cluster(2, {1000, 4096, 4096}, {15.0, 5.0});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  const GuestId c = venv.add_guest({});
  const GuestId d = venv.add_guest({});
  venv.add_link(a, b, {10.0, 60.0});
  venv.add_link(c, d, {10.0, 60.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(1), n(0), n(1)};
  const auto r = run_networking(venv, st, placement);
  EXPECT_FALSE(r.ok);
}

TEST(Networking, BandwidthSharingWithinCapacity) {
  const auto cluster = line_cluster(2, {1000, 4096, 4096}, {25.0, 5.0});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  const GuestId c = venv.add_guest({});
  const GuestId d = venv.add_guest({});
  venv.add_link(a, b, {10.0, 60.0});
  venv.add_link(c, d, {10.0, 60.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(1), n(0), n(1)};
  const auto r = run_networking(venv, st, placement);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_DOUBLE_EQ(st.residual_bw(EdgeId{0}), 5.0);
  EXPECT_EQ(r.links_routed, 2u);
}

TEST(Networking, AStarSpreadsLoadAcrossRing) {
  // Ring of 4: two disjoint 2-hop routes between opposite corners.  With
  // bottleneck-maximizing A*Prune the second link must avoid the first
  // link's (now narrower) side.
  const auto cluster = ring_cluster(4, {1000, 4096, 4096}, {100.0, 5.0});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  const GuestId c = venv.add_guest({});
  const GuestId d = venv.add_guest({});
  venv.add_link(a, b, {60.0, 60.0});
  venv.add_link(c, d, {60.0, 60.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(2), n(0), n(2)};
  const auto r = run_networking(venv, st, placement);
  ASSERT_TRUE(r.ok) << r.detail;
  // Both routes placed, necessarily on disjoint sides (each side carries at
  // most one 60 Mbps link on 100 Mbps edges).
  for (std::size_t e = 0; e < cluster.link_count(); ++e) {
    EXPECT_GE(st.residual_bw(EdgeId{static_cast<EdgeId::underlying_type>(e)}),
              0.0);
  }
  std::set<EdgeId> first(r.link_paths[0].begin(), r.link_paths[0].end());
  for (const EdgeId e : r.link_paths[1]) {
    EXPECT_FALSE(first.contains(e)) << "routes share edge " << e.value();
  }
}

TEST(Networking, DescendingOrderRoutesHeaviestFirst) {
  // One wide path and one narrow path; the heavy link must claim the wide
  // one.  Ring of 4 with asymmetric capacities.
  auto topo = topology::ring(4);
  std::vector<model::HostCapacity> caps(4, {1000, 4096, 4096});
  // Edges in ring order: (0,1), (1,2), (2,3), (3,0).
  std::vector<model::LinkProps> links{{100.0, 5.0}, {100.0, 5.0},
                                      {30.0, 5.0}, {30.0, 5.0}};
  const auto cluster = model::PhysicalCluster::build(std::move(topo),
                                                     std::move(caps),
                                                     std::move(links));
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {50.0, 60.0});  // only fits the 100-Mbps side
  venv.add_link(a, b, {20.0, 60.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(2)};
  const auto r = run_networking(venv, st, placement);
  ASSERT_TRUE(r.ok) << r.detail;
  // The heavy link goes 0-1-2 (wide side).
  EXPECT_EQ(r.link_paths[0], (graph::Path{EdgeId{0}, EdgeId{1}}));
}

TEST(Networking, PrunedDfsFindsFeasibleWhereNaiveMayNot) {
  // Line of 5 hosts, tight latency: the only feasible path is direct.  The
  // pruned DFS always finds it; the naive DFS on a line also finds it (no
  // wrong turns possible), so both succeed here — this guards the pruned
  // variant's correctness.
  const auto cluster = line_cluster(5);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {1.0, 20.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(4)};
  NetworkingOptions opts;
  opts.algorithm = PathAlgorithm::kDfsPruned;
  const auto r = run_networking(venv, st, placement, opts);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.link_paths[0].size(), 4u);
}

TEST(Networking, NaiveDfsRejectsConstraintViolatingPath) {
  // Naive DFS on a line finds the unique path; with an impossible latency
  // bound the stage must fail (the post-check rejects it).
  const auto cluster = line_cluster(4);
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {1.0, 10.0});  // needs 15 ms
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(3)};
  NetworkingOptions opts;
  opts.algorithm = PathAlgorithm::kDfsNaive;
  const auto r = run_networking(venv, st, placement, opts);
  EXPECT_FALSE(r.ok);
}

TEST(Networking, SwitchedClusterRoutesThroughSwitch) {
  auto topo = topology::switched(4, 64);
  std::vector<model::HostCapacity> caps(4, {1000, 4096, 4096});
  const auto cluster = model::PhysicalCluster::build(
      std::move(topo), std::move(caps), model::LinkProps{1000.0, 5.0});
  VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {1.0, 60.0});
  ResidualState st(cluster);
  const std::vector<NodeId> placement{n(0), n(3)};
  const auto r = run_networking(venv, st, placement);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.link_paths[0].size(), 2u);  // host-switch-host
}

TEST(Networking, MinLatencyPicksFastestFeasiblePath) {
  // Ring of 4 with one slow side: min-latency takes the fast side even
  // though both are feasible.
  auto topo = topology::ring(4);
  std::vector<model::HostCapacity> caps(4, {1000, 4096, 4096});
  // Edges: (0,1) (1,2) (2,3) (3,0); make the 0-1-2 side slow.
  std::vector<model::LinkProps> links{{100.0, 20.0}, {100.0, 20.0},
                                      {100.0, 5.0}, {100.0, 5.0}};
  const auto cluster = model::PhysicalCluster::build(std::move(topo),
                                                     std::move(caps),
                                                     std::move(links));
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {1.0, 60.0});
  ResidualState st(cluster);
  NetworkingOptions opts;
  opts.algorithm = PathAlgorithm::kMinLatency;
  const auto r = run_networking(venv, st, {n(0), n(2)}, opts);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.link_paths[0], (graph::Path{EdgeId{3}, EdgeId{2}}));
}

TEST(Networking, MinLatencyRespectsBandwidthFilter) {
  // The fast side lacks bandwidth for the demand; min-latency must route
  // around it.
  auto topo = topology::ring(4);
  std::vector<model::HostCapacity> caps(4, {1000, 4096, 4096});
  std::vector<model::LinkProps> links{{100.0, 20.0}, {100.0, 20.0},
                                      {5.0, 5.0}, {5.0, 5.0}};
  const auto cluster = model::PhysicalCluster::build(std::move(topo),
                                                     std::move(caps),
                                                     std::move(links));
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {50.0, 60.0});  // too wide for the 5 Mbps side
  ResidualState st(cluster);
  NetworkingOptions opts;
  opts.algorithm = PathAlgorithm::kMinLatency;
  const auto r = run_networking(venv, st, {n(0), n(2)}, opts);
  ASSERT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.link_paths[0], (graph::Path{EdgeId{0}, EdgeId{1}}));
}

TEST(Networking, MinLatencyFailsWhenBoundUnreachable) {
  const auto cluster = line_cluster(4);  // 3 hops x 5 ms
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {1.0, 10.0});
  ResidualState st(cluster);
  NetworkingOptions opts;
  opts.algorithm = PathAlgorithm::kMinLatency;
  const auto r = run_networking(venv, st, {n(0), n(3)}, opts);
  EXPECT_FALSE(r.ok);
}

TEST(Networking, MinLatencySpendsBottleneckGreedily) {
  // Two links over a ring where one side is both fastest and narrow:
  // min-latency stacks both on it (succeeding only if capacity allows),
  // while A*Prune splits them.  With capacity for exactly one, the second
  // min-latency link is forced to the slow side anyway — but the *first*
  // link's choice shows the greed: A*Prune picks the wide slow side for
  // neither... simply verify both algorithms succeed and A*Prune's worst
  // residual edge is no tighter than min-latency's.
  const auto cluster = ring_cluster(4, {1000, 4096, 4096}, {100.0, 5.0});
  model::VirtualEnvironment venv;
  const GuestId a = venv.add_guest({});
  const GuestId b = venv.add_guest({});
  venv.add_link(a, b, {60.0, 60.0});
  venv.add_link(a, b, {30.0, 60.0});
  const std::vector<NodeId> placement{n(0), n(2)};

  auto worst_residual = [&](PathAlgorithm algo) {
    ResidualState st(cluster);
    NetworkingOptions opts;
    opts.algorithm = algo;
    const auto r = run_networking(venv, st, placement, opts);
    EXPECT_TRUE(r.ok) << r.detail;
    double worst = 1e18;
    for (std::size_t e = 0; e < cluster.link_count(); ++e) {
      worst = std::min(worst, st.residual_bw(EdgeId{
          static_cast<EdgeId::underlying_type>(e)}));
    }
    return worst;
  };
  EXPECT_GE(worst_residual(PathAlgorithm::kAStarPrune),
            worst_residual(PathAlgorithm::kMinLatency));
}

TEST(Networking, EmptyVenvTrivialSuccess) {
  const auto cluster = line_cluster(2);
  VirtualEnvironment venv;
  ResidualState st(cluster);
  const auto r = run_networking(venv, st, {});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.links_routed, 0u);
}

TEST(LinkRouter, DeadEdgesAreAvoidedEvenAtZeroBandwidth) {
  // A dead edge reads as zero bandwidth, which a 0-Mbps demand accepts;
  // its infinite latency is what sends the search around the ring.
  const auto cluster = ring_cluster(4);
  const ResidualState st(cluster);
  std::vector<bool> dead(cluster.link_count(), false);
  dead[0] = true;  // edge 0-1
  core::LinkRouter router(st, &dead);
  const model::VirtualLinkDemand zero{0.0, 60.0};
  const auto detour = router.route(n(0), n(1), zero);
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(detour->edges.size(), 3u);  // 0-3-2-1
  EXPECT_EQ(std::count(detour->edges.begin(), detour->edges.end(), EdgeId{0}),
            0);

  dead[3] = true;  // edge 3-0 as well: node 0 is cut off
  core::LinkRouter stranded(st, &dead);
  EXPECT_FALSE(stranded.route(n(0), n(1), zero).has_value());
}

// A router that borrows ar[] tables another router filled routes exactly
// like a router that owns fresh ones, link after link, as both reserve.
// Over the switched cluster, a tree, the routers walk their paths and the
// borrowed tables stay empty.
TEST(LinkRouter, BorrowedTablesRouteLikeOwnedOnes) {
  for (const auto kind :
       {workload::ClusterKind::kTorus2D, workload::ClusterKind::kSwitched}) {
    const auto cluster = workload::make_paper_cluster(kind, 3);
    const auto& hosts = cluster.hosts();
    util::Rng rng(11);
    auto random_link = [&] {
      const NodeId s = hosts[rng.index(hosts.size())];
      NodeId d = hosts[rng.index(hosts.size() - 1)];
      if (d == s) d = hosts.back();
      const model::VirtualLinkDemand demand{rng.uniform(1.0, 120.0),
                                            rng.uniform(5.0, 40.0)};
      return std::tuple{s, d, demand};
    };

    core::LatencyTables shared;
    {
      const ResidualState warm_state(cluster);
      core::LinkRouter warm(warm_state, shared);
      for (int i = 0; i < 200; ++i) {
        const auto [s, d, demand] = random_link();
        (void)warm.route(s, d, demand);
      }
    }
    auto filled = [&] {
      return std::count_if(
          shared.to_dest.begin(), shared.to_dest.end(),
          [](const std::vector<double>& t) { return !t.empty(); });
    };
    if (kind == workload::ClusterKind::kTorus2D) {
      EXPECT_GT(filled(), 20);
    } else {
      EXPECT_EQ(filled(), 0);
    }

    ResidualState borrowed_state(cluster);
    ResidualState owned_state(cluster);
    core::LinkRouter borrowing(borrowed_state, shared);
    core::LinkRouter owning(owned_state);
    std::size_t routed = 0;
    for (int i = 0; i < 400; ++i) {
      const auto [s, d, demand] = random_link();
      const auto a = borrowing.route(s, d, demand);
      const auto b = owning.route(s, d, demand);
      ASSERT_EQ(a.has_value(), b.has_value()) << "link " << i;
      if (!a.has_value()) continue;
      ++routed;
      EXPECT_EQ(a->edges, b->edges) << "link " << i;
      EXPECT_EQ(a->bottleneck_bw, b->bottleneck_bw) << "link " << i;
      EXPECT_EQ(a->total_latency, b->total_latency) << "link " << i;
      borrowed_state.reserve_bw(a->edges, demand.bandwidth_mbps);
      owned_state.reserve_bw(b->edges, demand.bandwidth_mbps);
    }
    EXPECT_GT(routed, 100u);
    if (kind == workload::ClusterKind::kSwitched) {
      EXPECT_EQ(filled(), 0);
    }
  }
}

// A cluster over `topo` whose links carry random bandwidths and inexact
// latencies, so that prefix and suffix latency sums round differently.
model::PhysicalCluster inexact_cluster(topology::Topology topo,
                                       util::Rng& rng) {
  const std::size_t hosts = topo.host_count();
  std::vector<model::LinkProps> links(topo.graph.edge_count());
  for (auto& link : links) {
    constexpr double kLatencies[] = {0.1, 1.0 / 3.0, 30.0 / 7.0};
    link.bandwidth_mbps = rng.chance(0.2) ? 100.0 : rng.uniform(10.0, 1000.0);
    link.latency_ms =
        rng.chance(0.75) ? kLatencies[rng.index(3)] : rng.uniform(0.05, 9.0);
  }
  return model::PhysicalCluster::build(
      std::move(topo), std::vector<model::HostCapacity>(hosts), links);
}

// On a forest the router walks the unique path instead of searching; its
// answer must equal the modified A*Prune's, run directly with the router's
// edge rules (a dead edge reads as zero bandwidth and infinite latency),
// query after query while bandwidth is reserved along the found paths.
// The latency bounds sit on the path latency and one ulp either side of
// it, where a walk that checks only the total, or that sums ar[] in the
// wrong order, answers differently.
TEST(LinkRouter, ForestRoutesMatchAStarPrune) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::Rng rng(2009);

  std::vector<model::PhysicalCluster> forests;
  forests.push_back(inexact_cluster(topology::star(12), rng));
  forests.push_back(inexact_cluster(topology::line(9), rng));
  forests.push_back(inexact_cluster(topology::switch_tree(60, 4, 3), rng));
  forests.push_back(workload::make_paper_cluster(
      workload::ClusterKind::kSwitched, 1));
  for (const std::size_t size : {2u, 7u, 23u, 48u}) {
    forests.push_back(
        inexact_cluster(topology::random_cluster(size, 0.0, rng), rng));
  }
  // Induced sub-forests: dropping nodes of a switch tree splits it into
  // components, so some pairs have no path at all.
  for (int i = 0; i < 3; ++i) {
    const auto tree =
        inexact_cluster(topology::switch_tree(40, 4, 2), rng);
    std::vector<NodeId> kept;
    for (std::size_t v = 0; v < tree.node_count(); ++v) {
      if (rng.chance(0.8)) kept.push_back(NodeId{static_cast<unsigned>(v)});
    }
    forests.push_back(topology::induced_subcluster(tree, kept).cluster);
  }

  std::size_t queries = 0, found = 0, mismatches = 0;
  // Refused at a bound equal to the path's own latency although wide
  // enough: a step's prefix plus suffix rounded above the total.
  std::size_t tight_refusals = 0;
  auto compare = [&](const model::PhysicalCluster& cluster,
                     core::ResidualState& st,
                     const std::vector<bool>* dead, core::LinkRouter& router,
                     int rounds) {
    auto is_dead = [&](EdgeId e) {
      return dead != nullptr && (*dead)[e.index()];
    };
    auto bw = [&](EdgeId e) { return is_dead(e) ? 0.0 : st.residual_bw(e); };
    auto lat = [&](EdgeId e) {
      return is_dead(e) ? kInf : cluster.link(e).latency_ms;
    };
    graph::AStarPruneScratch scratch;
    auto search = [&](NodeId s, NodeId d, double demand, double bound) {
      return graph::astar_prune_bottleneck(cluster.graph(), s, d, demand,
                                           bound, bw, lat, {}, scratch);
    };
    const std::size_t nodes = cluster.node_count();
    for (int i = 0; i < rounds; ++i) {
      const NodeId s{static_cast<unsigned>(rng.index(nodes))};
      const NodeId d{static_cast<unsigned>(rng.index(nodes))};
      // The path latency as the search sums it, unconstrained.
      const auto free = search(s, d, 0.0, kInf);
      const double path_lat = free.has_value() ? free->total_latency : 1.0;
      const double demand =
          rng.chance(0.25) ? 0.0 : rng.uniform(0.0, 400.0);
      const auto loose = search(s, d, demand, kInf);
      const double bounds[] = {path_lat, std::nextafter(path_lat, -kInf),
                               std::nextafter(path_lat, kInf),
                               path_lat * rng.uniform(0.5, 1.5), kInf};
      for (std::size_t b = 0; b < std::size(bounds); ++b) {
        const double bound = bounds[b];
        ++queries;
        const model::VirtualLinkDemand vl{demand, bound};
        const auto got = router.route(s, d, vl);
        const auto want = search(s, d, demand, bound);
        const bool same =
            got.has_value() == want.has_value() &&
            (!got.has_value() ||
             (got->edges == want->edges &&
              got->bottleneck_bw == want->bottleneck_bw &&
              got->total_latency == want->total_latency));
        if (!same && ++mismatches <= 5) {
          ADD_FAILURE() << "route " << s.value() << " -> " << d.value()
                        << " demand " << demand << " bound " << bound
                        << ": router " << (got ? "found" : "refused")
                        << ", A*Prune " << (want ? "found" : "refused");
        }
        if (b == 0 && loose.has_value() && !want.has_value()) {
          ++tight_refusals;
        }
      }
      // Reserve along the path the search finds at the drawn demand, so
      // later queries see less bandwidth.
      if (loose.has_value() && !loose->edges.empty() &&
          std::isfinite(loose->total_latency)) {
        ++found;
        st.reserve_bw(loose->edges, demand);
      }
    }
  };

  for (const auto& forest : forests) {
    // Intact, with its ar[] tables borrowed: a forest router fills none.
    {
      core::ResidualState st(forest);
      core::LatencyTables tables;
      core::LinkRouter router(st, tables);
      compare(forest, st, nullptr, router, 400);
      EXPECT_TRUE(std::all_of(tables.to_dest.begin(), tables.to_dest.end(),
                              [](const auto& t) { return t.empty(); }));
    }
    // A dead-edge mask, as repair_mapping passes.
    {
      core::ResidualState st(forest);
      std::vector<bool> dead(forest.link_count(), false);
      for (std::size_t e = 0; e < dead.size(); ++e) dead[e] = rng.chance(0.1);
      core::LinkRouter router(st, &dead);
      compare(forest, st, &dead, router, 300);
    }
    // Failed links and a failed node, as the healer's masked views carry.
    {
      auto damaged = forest;
      for (std::size_t e = 0; e < damaged.link_count(); ++e) {
        if (rng.chance(0.1)) {
          damaged.fail_link(EdgeId{static_cast<unsigned>(e)});
        }
      }
      damaged.fail_node(
          NodeId{static_cast<unsigned>(rng.index(damaged.node_count()))});
      core::ResidualState st(damaged);
      core::LinkRouter router(st);
      compare(damaged, st, nullptr, router, 300);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << queries << " queries";
  EXPECT_GT(found, 1000u);
  EXPECT_GT(tight_refusals, 0u);

  // Fabrics with a cycle still search, and fill their ar[] tables: the
  // torus, and a line with one doubled link, whose parallel edges a walk
  // could not choose between.
  topology::Topology doubled = topology::line(6);
  doubled.graph.add_edge(NodeId{2}, NodeId{3});
  for (const auto& cyclic :
       {workload::make_paper_cluster(workload::ClusterKind::kTorus2D, 1),
        inexact_cluster(std::move(doubled), rng)}) {
    core::ResidualState st(cyclic);
    core::LatencyTables tables;
    core::LinkRouter router(st, tables);
    compare(cyclic, st, nullptr, router, 200);
    EXPECT_TRUE(std::any_of(tables.to_dest.begin(), tables.to_dest.end(),
                            [](const auto& t) { return !t.empty(); }));
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
